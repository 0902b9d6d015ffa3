package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ninf"
)

// The traced run measures every layer from outside: wrappers around the
// connections, the timestamps a Report carries, counters the server
// already exports, and (layers.go) timing calls into each layer's
// public functions. None of it exists in the untraced run.

// connStats counts what the layer above asked of one side's
// connections.
type connStats struct {
	writes, writeBytes, writeNanos atomic.Int64
	reads, readBytes               atomic.Int64
}

type connCounts struct{ writes, writeBytes, writeNanos, reads, readBytes int64 }

func (s *connStats) snapshot() connCounts {
	return connCounts{s.writes.Load(), s.writeBytes.Load(), s.writeNanos.Load(), s.reads.Load(), s.readBytes.Load()}
}

func (a connCounts) sub(b connCounts) connCounts {
	return connCounts{a.writes - b.writes, a.writeBytes - b.writeBytes, a.writeNanos - b.writeNanos, a.reads - b.reads, a.readBytes - b.readBytes}
}

// countConn counts and times Read and Write. It hides the concrete
// *net.TCPConn, so a net.Buffers write reaches it one element at a
// time instead of as one writev: *_writes_per_call counts those
// elements, and trace.overhead_frac includes what the lost writev costs.
type countConn struct {
	net.Conn
	st *connStats
}

// SyscallConn keeps the lockstep pool's MSG_PEEK liveness probe working
// through the wrapper; without it every pooled call would pay the
// fallback's read-deadline probe.
func (c *countConn) SyscallConn() (syscall.RawConn, error) {
	sc, ok := c.Conn.(syscall.Conn)
	if !ok {
		return nil, errors.New("wrapped connection has no file descriptor")
	}
	return sc.SyscallConn()
}

func (c *countConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNanos.Add(int64(time.Since(t)))
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.st.reads.Add(1)
		c.st.readBytes.Add(int64(n))
	}
	return n, err
}

type countListener struct {
	net.Listener
	st *connStats
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, st: l.st}, nil
}

// span is one timed interval of one call. Spans of a call share its id;
// parent names the span that caused this one.
type span struct {
	Call   int64  `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// maxSpanCalls bounds the span file: the first calls of the window are
// kept whole, the rest only feed the percentiles.
const maxSpanCalls = 5000

// tracer collects, for calls inside the armed window, the paper's four
// intervals from each Report and the spans built from them.
type tracer struct {
	client, server connStats

	mu     sync.Mutex
	epoch  time.Time
	t0, t1 int64
	calls  int64
	spans  []span
	// µs, one entry per traced call
	response, ret, wait, compute []float64
}

// arm starts collection for calls that begin in [t0, t1) of clk.
func (t *tracer) arm(clk clock, w window) {
	t.mu.Lock()
	t.epoch, t.t0, t.t1 = clk.epoch, w.t0, w.t1
	t.mu.Unlock()
}

// observe records one verified call the harness timed from s to e. The
// Report's server stamps are on the same clock: it is one process.
func (t *tracer) observe(clk clock, rep *ninf.Report, s, e int64, ok bool) {
	if t == nil || rep == nil || !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if clk.epoch != t.epoch || s < t.t0 || s >= t.t1 {
		return
	}
	t.response = append(t.response, float64(rep.Response())/1e3)
	t.wait = append(t.wait, float64(rep.Wait())/1e3)
	t.compute = append(t.compute, float64(rep.ComputeTime())/1e3)
	t.ret = append(t.ret, float64(rep.Received.Sub(rep.Complete))/1e3)
	id := t.calls
	t.calls++
	if id >= maxSpanCalls {
		return
	}
	at := func(x time.Time) int64 { return int64(x.Sub(t.epoch)) }
	t.spans = append(t.spans,
		span{Call: id, Name: "call", Start: s, End: e},
		span{Call: id, Name: "client.request", Start: at(rep.Submit), End: at(rep.Enqueue), Parent: "call"},
		span{Call: id, Name: "server.wait", Start: at(rep.Enqueue), End: at(rep.Dequeue), Parent: "call"},
		span{Call: id, Name: "library.compute", Start: at(rep.Dequeue), End: at(rep.Complete), Parent: "call"},
		span{Call: id, Name: "client.reply", Start: at(rep.Complete), End: at(rep.Received), Parent: "call"},
	)
}

// writeSpans writes the kept spans, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procIO reads this process's read and write syscall counts; ok is
// false where /proc/self/io is not available.
func procIO() (syscr, syscw int64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	var r, w int64
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var v int64
		if n, _ := fmt.Sscanf(sc.Text(), "syscr: %d", &v); n == 1 {
			r, found = v, found+1
		} else if n, _ := fmt.Sscanf(sc.Text(), "syscw: %d", &v); n == 1 {
			w, found = v, found+1
		}
	}
	return r, w, found == 2
}

// procSnap is what the process has consumed so far.
type procSnap struct {
	cpu          time.Duration
	mallocs      uint64
	allocBytes   uint64
	gcPause      uint64
	syscr, syscw int64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    ms.PauseTotalNs,
	}
	s.syscr, s.syscw, _ = procIO()
	return s
}

// poller samples, ten times a second, what only a running system shows:
// the server's queue and the heap in use.
type poller struct {
	stop   chan struct{}
	done   chan struct{}
	queued []float64
	heap   uint64
}

func startPoller(inst *instance) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.queued = append(p.queued, float64(inst.srv.Stats().Queued))
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				p.heap = max(p.heap, ms.HeapInuse)
			}
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

// runTraced produces the per-layer metrics of one workload:
//
//	A  an untraced reference window: the base of trace.overhead_frac
//	   and the process counters, on the unwrapped path
//	B  a single-caller window and the raw exchange against the same
//	   server (loopback workloads): client.self_us_p50 and reconcile.*
//	C  the traced window: wrappers, Reports, pollers, spans
//	D  submit_journal only: the same loop with no journal
//	E  the standalone timings of layers.go
//
// Every declared per-layer metric is reported for every workload; one
// whose layer the workload does not exercise reads 0.
func runTraced(w *workload, seed int64, win time.Duration, sp *spec) (result, error) {
	dir, err := scratchDir()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	m := metricSet{}
	for _, d := range sp.PerLayer {
		m.set(d.Name, d.Unit, 0, 0)
	}
	loopback := w.linkBps == 0
	shape := w.shape(seed)

	// A: untraced reference.
	inst, err := w.setup(runOpts{seed: seed, callers: callerCount(), dir: dir})
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	before := snapProc()
	recs, _, tw := measure(w, inst, win*2/10, nil)
	after := snapProc()
	ref := reduce(w, recs, tw)
	if !ref.Correct {
		inst.close()
		return result{}, fmt.Errorf("reference window: %d of %d calls failed", ref.Failed, ref.Attempted)
	}
	refRate := ref.Metrics["calls_per_s"].Value
	n := float64(len(recs))
	m.set("process.cpu_us_per_call", "us", float64(after.cpu-before.cpu)/1e3/n, len(recs))
	m.set("process.allocs_per_call", "count", float64(after.mallocs-before.mallocs)/n, len(recs))
	m.set("process.alloc_kb_per_call", "KB", float64(after.allocBytes-before.allocBytes)/1e3/n, len(recs))
	m.set("process.gc_pause_ms", "ms", float64(after.gcPause-before.gcPause)/1e6, 0)
	m.set("process.write_syscalls_per_call", "count", float64(after.syscw-before.syscw)/n, len(recs))
	m.set("process.read_syscalls_per_call", "count", float64(after.syscr-before.syscr)/n, len(recs))
	if err := shape.resolve(inst.clients[0]); err != nil {
		inst.close()
		return result{}, err
	}

	// B: one caller, then the same exchange without the client library.
	var oneP50, rawP50 float64
	if loopback {
		one, err := w.setup(runOpts{seed: seed, callers: 1, dir: dir})
		if err != nil {
			inst.close()
			return result{}, fmt.Errorf("single-caller set-up: %w", err)
		}
		r1, _, tw1 := measure(w, one, win*2/10, nil)
		one.close()
		oneP50 = reduce(w, r1, tw1).Metrics["call_p50_us"].Value
		raw, err := rawExchange(inst.addr, shape, win/20)
		if err != nil {
			inst.close()
			return result{}, fmt.Errorf("raw exchange: %w", err)
		}
		rawP50 = quantile(raw, 0.5)
		m.set("server.raw_exchange_us_p50", "us", rawP50, len(raw))
		m.set("client.self_us_p50", "us", oneP50-rawP50, 0)
	}
	inst.close()

	// C: the traced window.
	tr := &tracer{}
	ti, err := w.setup(runOpts{seed: seed, callers: callerCount(), dir: dir, tr: tr})
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	walBefore := fileSize(filepath.Join(ti.journalDir, "wal.log"))
	c0, s0 := tr.client.snapshot(), tr.server.snapshot()
	h0, mi0, ev0, _, _ := ti.srv.CacheCounters()
	poll := startPoller(ti)
	start := time.Now()
	recs, late, tw := measure(w, ti, win*3/10, tr)
	elapsed := time.Since(start).Seconds()
	poll.finish()
	cd, sd := tr.client.snapshot().sub(c0), tr.server.snapshot().sub(s0)
	h1, mi1, ev1, _, used := ti.srv.CacheCounters()
	ov := ti.srv.Overload()
	walAfter := fileSize(filepath.Join(ti.journalDir, "wal.log"))
	res := reduce(w, recs, tw)
	tracedRate := res.Metrics["calls_per_s"].Value
	res.Metrics = m
	n = float64(len(recs))
	logical := 0.0
	for i := range recs {
		logical += float64(recs[i].bytes)
	}
	wire := float64(cd.writeBytes + cd.readBytes)

	lat := latencies(recs, tw, func(c uint8) bool { return c != classSmall })
	m.set("client.call_p99_us", "us", quantile(lat, 0.99), len(lat))
	for name, v := range map[string][]float64{
		"client.response_us_p50": tr.response, "client.return_us_p50": tr.ret,
		"server.wait_us_p50": tr.wait, "library.compute_us_p50": tr.compute,
	} {
		sort.Float64s(v)
		m.set(name, "us", quantile(v, 0.5), len(v))
	}
	m.set("server.wait_us_p99", "us", quantile(tr.wait, 0.99), len(tr.wait))
	m.set("server.queued_mean", "count", mean(poll.queued), len(poll.queued))
	m.set("server.rejected_total", "count", float64(ov.ShedExpired+ov.RejectedDeadline+ov.RejectedQueue+ov.RejectedClient+ov.RejectedDraining), 0)
	m.set("net.wire_bytes_per_call", "B", wire/n, len(recs))
	m.set("net.client_writes_per_call", "count", float64(cd.writes)/n, len(recs))
	m.set("net.client_reads_per_call", "count", float64(cd.reads)/n, len(recs))
	m.set("net.server_writes_per_call", "count", float64(sd.writes)/n, len(recs))
	m.set("net.server_reads_per_call", "count", float64(sd.reads)/n, len(recs))
	m.set("net.client_write_us_per_call", "us", float64(cd.writeNanos)/1e3/n, len(recs))
	m.set("process.peak_heap_mb", "MB", float64(poll.heap)/1e6, 0)
	m.set("trace.overhead_frac", "frac", 1-tracedRate/refRate, 0)
	if len(late) > 0 {
		sort.Float64s(late)
		m.set("loadgen.late_p99_us", "us", quantile(late, 0.99), len(late))
	}
	if h1+mi1 > h0+mi0 {
		m.set("cache.hit_frac", "frac", float64(h1-h0)/float64(h1-h0+mi1-mi0), int(h1-h0+mi1-mi0))
		m.set("cache.evictions", "count", float64(ev1-ev0), 0)
		m.set("cache.used_mb", "MB", float64(used)/1e6, 0)
		m.set("cache.wire_saved_frac", "frac", 1-wire/logical, 0)
	}
	if !loopback {
		m.set("emunet.link_utilization", "frac", wire/(w.linkBps*elapsed), 0)
		res.PacingErrorFrac = pacingError(w.linkBps)
		m.set("emunet.pacing_error_frac", "frac", res.PacingErrorFrac, 0)
	}
	jdir := ti.journalDir
	ti.close()
	if err := tr.writeSpans(filepath.Join(outDir(), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
		return result{}, err
	}

	// D: what the journal costs.
	if jdir != "" {
		m.set("journal.bytes_per_submit", "B", float64(walAfter-walBefore)/n, len(recs))
		t := time.Now()
		if err := reopenJournal(jdir); err != nil {
			return result{}, err
		}
		m.set("journal.open_replay_ms", "ms", float64(time.Since(t))/1e6, 0)
		vi, err := w.setup(runOpts{seed: seed, callers: callerCount(), dir: dir, volatile: true})
		if err != nil {
			return result{}, fmt.Errorf("volatile set-up: %w", err)
		}
		rv, _, twv := measure(w, vi, win*2/10, nil)
		vi.close()
		vol := reduce(w, rv, twv).Metrics["calls_per_s"].Value
		m.set("journal.volatile_calls_per_s", "1/s", vol, 0)
		m.set("journal.tax_frac", "frac", 1-refRate/vol, 0)
	}

	// E: each layer on its own, with this workload's message shapes.
	if err := layerTimings(m, shape, w, dir, win/40); err != nil {
		return result{}, err
	}
	if loopback {
		floor := m["net.loopback_rtt_us_p50"].Value
		codec := m["protocol.encode_req_us"].Value + m["protocol.decode_reply_us"].Value
		sum := floor + codec + (rawP50 - floor)
		if echo := m["mux.echo_roundtrip_us_p50"].Value; echo > 0 {
			sum += echo - floor
		}
		m.set("reconcile.layer_sum_us", "us", sum, 0)
		m.set("reconcile.unexplained_us", "us", oneP50-sum, 0)
		m.set("reconcile.unexplained_frac", "frac", (oneP50-sum)/oneP50, 0)
	}
	return res, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
