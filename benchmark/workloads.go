package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/library"
	"ninf/internal/server"
	"ninf/internal/server/journal"
)

// runOpts is what one set-up of a workload needs to know.
type runOpts struct {
	seed    int64
	callers int     // closed-loop callers: 2, or 1 for the single-caller pass
	tr      *tracer // nil in the untraced run: no wrappers, no Report collection
	dir     string  // scratch directory inside the checkout
	// volatile drops submit_journal's journal: the base of journal.tax_frac.
	volatile bool
}

// instance is one set-up workload: a running server, connected and
// warmed clients, generated inputs, and the callers that drive it.
type instance struct {
	srv        *server.Server
	addr       string
	callers    []stepFunc
	open       *openLoop
	journalDir string
	clients    []*ninf.Client
}

func (in *instance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.srv.Close()
}

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	// transport is recorded in the environment block.
	transport string
	// linkBps is the emulated link's rate; 0 means loopback TCP.
	linkBps float64
	// callsPerSec sizes the rec buffers so they do not grow mid-run.
	callsPerSec int
	// shape describes one call for the standalone layer timings.
	shape func(seed int64) callShape
	setup func(o runOpts) (*instance, error)
}

const (
	mixedLinkBps  = 100e6 // the paper's LAN regime, as runMixedCell
	mixedPeriod   = 2 * time.Millisecond
	wanLinkBps    = 4e6 // Table 6's link ×24, so a run yields ≥60 cold samples
	wanLatency    = 20 * time.Millisecond
	wanN          = 200 // 320 KB matrix: above the 256 KiB digest threshold
	wanWarmPerOne = 3   // warm calls per cold call
	// wanCacheBudget holds a dozen matrices; a run uploads some fifty, so
	// eviction runs from the third second on.
	wanCacheBudget = 4 << 20
	submitN        = 8
	submitBatch    = 4
)

var workloads = []workload{
	{name: "small_mux", transport: "loopback TCP", callsPerSec: 40000,
		shape: echoShape(1, false), setup: setupEcho(1, true, 2000)},
	{name: "mid_mux", transport: "loopback TCP", callsPerSec: 6000,
		shape: echoShape(8192, false), setup: setupEcho(8192, true, 300)},
	{name: "mid_lockstep", transport: "loopback TCP", callsPerSec: 6000,
		shape: echoShape(8192, true), setup: setupEcho(8192, false, 300)},
	{name: "bulk_mux", transport: "loopback TCP", callsPerSec: 200,
		shape: echoShape(1<<20, false), setup: setupEcho(1<<20, true, 6)},
	{name: "mixed_link", transport: "emulated link @ 100 MB/s shared both ways, 0 ms", linkBps: mixedLinkBps, callsPerSec: 50,
		shape: echoShape(1<<20, false), setup: setupMixed},
	{name: "submit_journal", transport: "loopback TCP", callsPerSec: 20000,
		shape: submitShape, setup: setupSubmit},
	{name: "wan_cache", transport: "emulated link @ 4 MB/s shared both ways, 20 ms one-way", linkBps: wanLinkBps, callsPerSec: 50,
		shape: wanShape, setup: setupWAN},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// startServer runs a standard-library server on loopback TCP. shape, if
// set, paces the accepted connections; the traced run counts below it.
func startServer(cfg server.Config, o runOpts, journalDir string, shape func(net.Listener) net.Listener) (*server.Server, string, error) {
	reg, err := library.NewRegistry()
	if err != nil {
		return nil, "", err
	}
	s := server.New(cfg, reg)
	if journalDir != "" {
		if _, err := s.AttachJournal(journalDir, journal.Options{Fsync: journal.FsyncInterval}); err != nil {
			return nil, "", fmt.Errorf("attach journal: %w", err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	addr := l.Addr().String()
	if o.tr != nil {
		l = &countListener{Listener: l, st: &o.tr.server}
	}
	if shape != nil {
		l = shape(l)
	}
	go s.Serve(l) // returns when s.Close closes the listener
	return s, addr, nil
}

// dialer hands the client the raw *net.TCPConn in the untraced run:
// net.Buffers.WriteTo only issues writev, and the pool's liveness probe
// only MSG_PEEKs, on the concrete type. The traced run swaps in the
// counting wrapper, and trace.overhead_frac reports what that costs.
func dialer(addr string, o runOpts) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if _, ok := c.(*net.TCPConn); !ok {
			c.Close()
			return nil, fmt.Errorf("dial gave %T, want *net.TCPConn", c)
		}
		if o.tr != nil {
			return &countConn{Conn: c, st: &o.tr.client}, nil
		}
		return c, nil
	}
}

// shapedListener paces the server's writes to the shared link, as
// internal/experiments' runMixedCell does: with only the client side
// shaped the kernel's socket buffers would hold megabytes of bulk reply
// ahead of the small replies.
type shapedListener struct {
	net.Listener
	opts emunet.Options
}

func (sl *shapedListener) Accept() (net.Conn, error) {
	c, err := sl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return emunet.Wrap(c, sl.opts), nil
}

// warmUp runs every closed-loop caller n steps, concurrently as in the
// timed window, and fails set-up if any output is wrong.
func warmUp(callers []stepFunc, n int) error {
	clk := clock{time.Now()}
	var wg sync.WaitGroup
	bad := make([]int, len(callers))
	for i, step := range callers {
		wg.Add(1)
		go func(i int, step stepFunc) {
			defer wg.Done()
			var recs []rec
			for k := 0; k < n; k++ {
				step(clk, &recs)
			}
			for _, r := range recs {
				if !r.ok {
					bad[i]++
				}
			}
		}(i, step)
	}
	wg.Wait()
	for _, b := range bad {
		if b > 0 {
			return fmt.Errorf("%d warm-up calls failed", b)
		}
	}
	return nil
}

var errsNoted atomic.Int32

// noteErr prints the first few call errors; every one is counted by its
// rec.
func noteErr(what string, err error) {
	if errsNoted.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// echoBytes is the logical traffic of one echo call: the scalar n, the
// input vector and its copy back.
func echoBytes(n int) int64 { return 8 + 16*int64(n) }

// echoCaller returns a caller that echoes in through out, changing one
// element per call so a stale out can never pass the check. pooled
// routes the call through CallAsync, the lockstep connection pool.
func echoCaller(c *ninf.Client, pooled bool, in, out []float64, class uint8, tr *tracer) stepFunc {
	n, k := len(in), 0
	return func(clk clock, recs *[]rec) {
		in[k%n] = float64(k)
		k++
		s := clk.now()
		var rep *ninf.Report
		var err error
		if pooled {
			rep, err = c.CallAsync("echo", n, in, out).Wait()
		} else {
			rep, err = c.Call("echo", n, in, out)
		}
		e := clk.now()
		if err != nil {
			noteErr("echo", err)
		}
		ok := err == nil && slices.Equal(in, out)
		*recs = append(*recs, rec{start: s, end: e, bytes: echoBytes(n), class: class, ok: ok})
		tr.observe(clk, rep, s, e, ok)
	}
}

// setupEcho builds the four loopback echo workloads: one client, the
// callers sharing its mux session, or — mux off — its lockstep pool with
// one pooled connection per caller.
func setupEcho(n int, mux bool, warm int) func(runOpts) (*instance, error) {
	return func(o runOpts) (*instance, error) {
		srv, addr, err := startServer(server.Config{Hostname: "bench", PEs: 2}, o, "", nil)
		if err != nil {
			return nil, err
		}
		c, err := ninf.NewClient(dialer(addr, o))
		if err != nil {
			srv.Close()
			return nil, err
		}
		inst := &instance{srv: srv, addr: addr, clients: []*ninf.Client{c}}
		if !mux {
			c.SetMultiplexing(false)
			c.SetPoolSize(o.callers)
		}
		rng := rand.New(rand.NewSource(o.seed))
		for k := 0; k < o.callers; k++ {
			inst.callers = append(inst.callers,
				echoCaller(c, !mux, randVec(rng, n), make([]float64, n), classCall, o.tr))
		}
		if err := warmUp(inst.callers, warm); err != nil {
			inst.close()
			return nil, err
		}
		if mux && !c.Multiplexed() {
			inst.close()
			return nil, errors.New("client fell off the mux path")
		}
		return inst, nil
	}
}

// setupMixed builds mixed_link: one mux session over a 100 MB/s link
// shaped on both ends, one closed-loop 8 MiB echo caller, and an 8 B
// echo scheduled every 2 ms.
func setupMixed(o runOpts) (*instance, error) {
	link := emunet.NewLink("lan", mixedLinkBps)
	shaped := emunet.Options{Up: []*emunet.Link{link}}
	srv, addr, err := startServer(server.Config{Hostname: "bench", PEs: 2}, o, "",
		func(l net.Listener) net.Listener { return &shapedListener{l, shaped} })
	if err != nil {
		return nil, err
	}
	c, err := ninf.NewClient(emunet.Dialer(dialer(addr, o), shaped))
	if err != nil {
		srv.Close()
		return nil, err
	}
	inst := &instance{srv: srv, addr: addr, clients: []*ninf.Client{c}}
	rng := rand.New(rand.NewSource(o.seed))
	const bulk = 1 << 20
	inst.callers = []stepFunc{echoCaller(c, false, randVec(rng, bulk), make([]float64, bulk), classCall, o.tr)}
	inst.open = &openLoop{period: mixedPeriod, workers: 64, newCall: func() func(clock, int64) rec {
		in, out := []float64{0}, []float64{0}
		return func(clk clock, due int64) rec {
			in[0] = float64(due)
			rep, err := c.Call("echo", 1, in, out)
			e := clk.now()
			if err != nil {
				noteErr("scheduled echo", err)
			}
			ok := err == nil && in[0] == out[0]
			o.tr.observe(clk, rep, due, e, ok)
			return rec{start: due, end: e, bytes: echoBytes(1), class: classSmall, ok: ok}
		}
	}}
	small := inst.open.newCall()
	warmSmall := func(clk clock, recs *[]rec) { *recs = append(*recs, small(clk, clk.now())) }
	if err := warmUp([]stepFunc{inst.callers[0], warmSmall}, 1); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// mmul is the harness's own reference product (i-j-k, not the
// library's i-k-j kernel). Inputs are small integers, so every partial
// sum is exact and the comparison can be bit-for-bit.
func mmul(n int, a, b, c []float64) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// dmmulBytes is the logical traffic of one dmmul: n, A, B in, C out.
func dmmulBytes(n int) int64 { return 8 + 3*8*int64(n*n) }

// setupSubmit builds submit_journal: two clients, each submitting a
// batch of four dmmul(8) and then fetching them, against a server whose
// journal lives in the scratch directory.
func setupSubmit(o runOpts) (*instance, error) {
	dir := ""
	if !o.volatile {
		var err error
		if dir, err = os.MkdirTemp(o.dir, "journal-"); err != nil {
			return nil, err
		}
	}
	srv, addr, err := startServer(server.Config{Hostname: "bench", PEs: 2}, o, dir, nil)
	if err != nil {
		return nil, err
	}
	inst := &instance{srv: srv, addr: addr, journalDir: dir}
	rng := rand.New(rand.NewSource(o.seed))
	for k := 0; k < o.callers; k++ {
		c, err := ninf.NewClient(dialer(addr, o))
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.clients = append(inst.clients, c)
		inst.callers = append(inst.callers, submitCaller(c, rng.Intn(1<<20), o.tr))
	}
	// 300 batches: enough calls that set-up time is not just AttachJournal's
	// handful of fsyncs, which vary 2× from run to run.
	if err := warmUp(inst.callers, 300); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func submitCaller(c *ninf.Client, base int, tr *tracer) stepFunc {
	const n = submitN
	type slot struct {
		a, b, got, want []float64
		job             *ninf.Job
		start           int64
	}
	var slots [submitBatch]slot
	for i := range slots {
		slots[i] = slot{a: make([]float64, n*n), b: make([]float64, n*n), got: make([]float64, n*n), want: make([]float64, n*n)}
	}
	round := base
	return func(clk clock, recs *[]rec) {
		round++
		for i := range slots {
			sl := &slots[i]
			for j := range sl.a {
				sl.a[j] = float64((round + i + j) % 16)
				sl.b[j] = float64((round + 3*j) % 7)
				sl.got[j] = -1
			}
			mmul(n, sl.a, sl.b, sl.want)
			sl.start = clk.now()
			var err error
			if sl.job, err = c.Submit("dmmul", n, sl.a, sl.b, sl.got); err != nil {
				noteErr("submit", err)
			}
		}
		for i := range slots {
			sl := &slots[i]
			ok := false
			var rep *ninf.Report
			if sl.job != nil {
				var err error
				if rep, err = sl.job.Fetch(true); err != nil {
					noteErr("fetch", err)
				} else {
					ok = slices.Equal(sl.got, sl.want)
				}
			}
			e := clk.now()
			*recs = append(*recs, rec{start: sl.start, end: e, bytes: dmmulBytes(n), class: classCall, ok: ok})
			tr.observe(clk, rep, sl.start, e, ok)
		}
	}
}

// linsolveBytes is the logical traffic of one linsolve: n, A and b in,
// x out — whether or not the cache spared A the wire.
func linsolveBytes(n int) int64 { return 8 + 8*int64(n*n) + 16*int64(n) }

// setupWAN builds wan_cache: two clients behind one 4 MB/s, 20 ms link,
// a 4 MiB server cache, each client cycling one cold linsolve(200) on
// a fresh matrix and three warm ones on the same matrix.
func setupWAN(o runOpts) (*instance, error) {
	srv, addr, err := startServer(server.Config{Hostname: "bench", PEs: 2, CacheBudget: wanCacheBudget}, o, "", nil)
	if err != nil {
		return nil, err
	}
	link := emunet.NewLink("wan", wanLinkBps)
	shaped := emunet.Dialer(dialer(addr, o), emunet.Options{
		Up: []*emunet.Link{link}, Down: []*emunet.Link{link}, Latency: wanLatency,
	})
	inst := &instance{srv: srv, addr: addr}
	var together pairBarrier
	if o.callers == 2 {
		together = make(pairBarrier)
	}
	for k := 0; k < o.callers; k++ {
		c, err := ninf.NewClient(shaped)
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.clients = append(inst.clients, c)
		inst.callers = append(inst.callers, wanCaller(c, rand.New(rand.NewSource(o.seed+int64(k)<<32)), together, o.tr))
	}
	// One whole cold+warm cycle, so the timed window starts on a cold call.
	if err := warmUp(inst.callers, 1+wanWarmPerOne); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// wanMatrix fills a with a fresh, comfortably non-singular matrix.
func wanMatrix(rng *rand.Rand, a []float64, n int) {
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n) / 4
	}
}

// residualInf is ‖A·x − b‖∞, computed by the harness.
func residualInf(a []float64, n int, x, b []float64) float64 {
	worst := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		row := a[i*n : i*n+n]
		for j, v := range row {
			s += v * x[j]
		}
		worst = math.Max(worst, math.Abs(s))
	}
	return worst
}

// pairBarrier lets two callers start something together. A caller whose
// partner has already stopped — the window is over — goes on alone
// after a second.
type pairBarrier chan struct{}

func (b pairBarrier) wait() {
	if b == nil {
		return
	}
	select {
	case b <- struct{}{}:
	case <-b:
	case <-time.After(time.Second):
	}
}

// wanCaller cycles one cold call and wanWarmPerOne warm ones. The two
// clients start each cycle together, so their cold uploads always share
// the link: the contended case, and the same in every run. Left to
// drift, the overlap — and with it the cold latency — would differ from
// run to run.
func wanCaller(c *ninf.Client, rng *rand.Rand, together pairBarrier, tr *tracer) stepFunc {
	const n = wanN
	a := make([]float64, n*n)
	b := make([]float64, n)
	x := make([]float64, n)
	pos := 0
	return func(clk clock, recs *[]rec) {
		class := classWarm
		if pos == 0 {
			wanMatrix(rng, a, n)
			class = classCold
			together.wait()
		}
		pos = (pos + 1) % (1 + wanWarmPerOne)
		for i := range b {
			b[i] = rng.Float64()
		}
		copy(x, b)
		s := clk.now()
		rep, err := c.Call("linsolve", n, a, x)
		e := clk.now()
		if err != nil {
			noteErr("linsolve", err)
		}
		ok := err == nil && residualInf(a, n, x, b) < 1e-8*n
		*recs = append(*recs, rec{start: s, end: e, bytes: linsolveBytes(n), class: class, ok: ok})
		tr.observe(clk, rep, s, e, ok)
	}
}

// scratchDir makes the run's scratch directory under benchmark/out, so
// the journal and the span files stay inside the checkout.
func scratchDir() (string, error) {
	base := filepath.Join(outDir(), "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
