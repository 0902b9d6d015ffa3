package ninf_test

// BenchmarkMuxVsLockstep: the paper's §4 multi-client question asked
// of our own data plane. The sweep drives 1/2/4/16/64 concurrent
// callers with 8B/64KiB/8MiB argument vectors over loopback TCP against
// one server, in three modes, and reports calls/s per cell: mux is the
// client as shipped (it spreads overlapping callers over up to
// GOMAXPROCS sessions), mux1 pins it to one session through the test
// hook — what every multiplexing client did before it held several, kept
// as the reference that says what the extra sessions buy — and lockstep
// turns multiplexing off. Two callers is the regime benchmark/ gates
// (BENCHMARK.json), here so that it can be run under -cpuprofile and
// -trace:
//
//	go test -run '^$' -bench 'MuxVsLockstep/mux/c2/64KiB' -cpuprofile cpu.prof .
//
// The multiclient-mux experiment (cmd/ninfbench) runs the 1/4/16/64
// sweep outside the testing harness and records BENCH_multiclient.json.

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/library"
	"ninf/internal/server"
)

var muxSweep = struct {
	callers []int
	sizes   []struct {
		name  string
		elems int
	}
}{
	callers: []int{1, 2, 4, 16, 64},
	sizes: []struct {
		name  string
		elems int
	}{
		{"8B", 1},
		{"64KiB", 8 << 10},
		{"8MiB", 1 << 20},
	},
}

func BenchmarkMuxVsLockstep(b *testing.B) {
	for _, mode := range []struct {
		name string
		mux  bool
		pin  int // sessions the client is held to; 0 leaves it alone
	}{{"mux", true, 0}, {"mux1", true, 1}, {"lockstep", false, 0}} {
		for _, nc := range muxSweep.callers {
			for _, size := range muxSweep.sizes {
				if size.elems >= 1<<20 && nc > 16 {
					// 64 callers × 8 MiB would hold half a GiB of
					// argument vectors in flight; the interesting
					// large-transfer contention shows by 16.
					continue
				}
				// -short is CI's race smoke: the 8 B cells at 1, 4 and
				// 16 callers. Two callers interleave nothing four do not.
				if testing.Short() && (size.elems > 1 || nc > 16 || nc == 2) {
					continue
				}
				name := mode.name + "/c" + itoa(nc) + "/" + size.name
				b.Run(name, func(b *testing.B) {
					benchMuxCell(b, mode.mux, mode.pin, nc, size.elems)
				})
			}
		}
	}
}

// benchMuxCell runs b.N echo calls spread over nc concurrent callers of
// one client.
func benchMuxCell(b *testing.B, mux bool, pin, nc, elems int) {
	c, cleanup := benchClient(b, server.Config{PEs: 4})
	defer cleanup()
	c.SetMultiplexing(mux)
	c.PinSessions(pin)
	if !mux {
		// Give the lockstep path its best shot: one pooled connection
		// per concurrent caller, so the comparison is mux vs a
		// fully-provisioned pool, not mux vs pool starvation.
		c.SetPoolSize(nc)
	}
	warm := make([]float64, elems)
	if _, err := c.Call("echo", elems, warm, make([]float64, elems)); err != nil {
		b.Fatal(err)
	}
	if c.Multiplexed() != mux {
		b.Fatalf("client multiplexed = %v, want %v", c.Multiplexed(), mux)
	}

	b.SetBytes(int64(2 * 8 * elems)) // echo moves the vector out and back
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < nc; w++ {
		calls := b.N / nc
		if w < b.N%nc {
			calls++
		}
		if calls == 0 {
			continue
		}
		wg.Add(1)
		go func(calls int) {
			defer wg.Done()
			in := make([]float64, elems)
			out := make([]float64, elems)
			for i := 0; i < calls; i++ {
				if _, err := c.Call("echo", elems, in, out); err != nil {
					b.Error(err)
					return
				}
			}
		}(calls)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "calls/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkMuxMixed is the mixed-size cell: 8-byte calls measured
// while a concurrent 8 MiB transfer occupies the same multiplexed
// session, on an emulated shared access link — "lan" at 100 MB/s (the
// paper's LAN regime; over raw loopback the wire is never the
// bottleneck and the cell would measure scheduler noise instead) and
// "wan" at 4 MB/s, where a chunk sized in bytes rather than in time is
// a long wait. "chunked" streams the large call as bounded interleaved
// bulk frames; "monolithic" disables
// chunking, so the 8 MiB call holds the link as one frame and every
// small call queues behind it. p99-ms is the small calls' tail latency;
// bulkMB/s is the concurrent large-transfer throughput on the shared
// link. The small caller is closed-loop: it completes many calls in
// each quiet gap between chunks and one per chunk it waits behind, so
// p50-ms mostly describes the gaps; mean-ms (elapsed ÷ calls) weighs
// every wait by its length. The client is pinned to one session: the
// cell is about how one writer interleaves the two, and left alone the
// small call would get a session — and a writer — of its own.
func BenchmarkMuxMixed(b *testing.B) {
	for _, cell := range []struct {
		name string
		bps  float64
		thr  int
	}{{"lan/chunked", 100e6, 0}, {"lan/monolithic", 100e6, -1}, {"wan/chunked", 4e6, 0}} {
		b.Run(cell.name, func(b *testing.B) {
			benchMuxMixedCell(b, cell.bps, cell.thr)
		})
	}
}

func benchMuxMixedCell(b *testing.B, linkBps float64, threshold int) {
	reg, err := library.NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(server.Config{PEs: 4, BulkThreshold: threshold}, reg)
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	// One shared access link, charged where the bytes enter
	// the wire: client writes upstream, server writes downstream. Both
	// endpoints pace to the link, as real NICs do — otherwise megabytes
	// of bulk chunks queue in kernel socket buffers ahead of the small
	// replies and the interleaving never reaches the wire.
	link := emunet.NewLink("access", linkBps)
	opts := emunet.Options{Up: []*emunet.Link{link}}
	go s.Serve(&shapedListener{l, opts})
	addr := l.Addr().String()
	c, err := ninf.NewClient(emunet.Dialer(
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
		opts,
	))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.SetBulkThreshold(threshold)
	c.PinSessions(1)

	const bulkElems = 1 << 20 // 8 MiB per direction
	smallIn := []float64{42}
	smallOut := make([]float64, 1)
	if _, err := c.Call("echo", 1, smallIn, smallOut); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var bulkCalls atomic.Int64
	var bulkWG sync.WaitGroup
	bulkWG.Add(1)
	go func() {
		defer bulkWG.Done()
		in := make([]float64, bulkElems)
		out := make([]float64, bulkElems)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Call("echo", bulkElems, in, out); err != nil {
				b.Error(err)
				return
			}
			bulkCalls.Add(1)
		}
	}()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := c.Call("echo", 1, smallIn, smallOut); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	// Transfers completed inside the timed window: one takes 4 s on the
	// wan link, so give that cell -benchtime 20s or more before reading
	// bulkMB/s.
	elapsed, bulkDone := b.Elapsed(), bulkCalls.Load()
	close(stop)
	bulkWG.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[min(len(lat)*99/100, len(lat)-1)]
	b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99-ms")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e6, "p50-ms")
	b.ReportMetric(elapsed.Seconds()*1e3/float64(b.N), "mean-ms")
	b.ReportMetric(float64(bulkDone)*2*8*bulkElems/1e6/elapsed.Seconds(), "bulkMB/s")
}

// shapedListener wraps accepted connections in emunet shaping, so the
// server side of a benchmark link paces its writes like a real NIC.
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
