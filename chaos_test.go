package ninf_test

// The chaos suite proves the resilience layer end to end: a
// multi-client transaction workload runs against three in-process
// servers behind seeded fault injectors (connection resets, partial
// writes, read/write stalls, dial failures), one server is killed
// mid-run, and every call must still complete exactly once on a live
// server — with the circuit breaker and injected-fault counters
// asserted so the suite cannot pass vacuously. A control run with
// retries and failover disabled must fail under the same faults,
// proving the resilience machinery (not luck) carries the workload.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/library"
	"ninf/internal/metaserver"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

const (
	chaosServers   = 3
	chaosClients   = 4
	chaosRounds    = 13
	chaosCallsPerT = 4 // calls per transaction
	chaosSeed      = 424242
)

// chaosWorld is three fault-wrapped servers behind one metaserver.
type chaosWorld struct {
	meta      *metaserver.Metaserver
	servers   []*server.Server
	injectors []*faultnet.Injector
	names     []string
}

// chaosPlan is the seeded fault plan each server's network runs under:
// roughly one fault per few hundred I/O operations, a sprinkle of
// failed dials, and short stalls so deadlines (not patience) cut
// black holes. SafeOps exempts each fresh connection's first
// operations, so the two-stage RPC's small interface fetch always
// lands and faults concentrate on call transfers — mid-transfer, where
// the paper's fault model lives.
func chaosPlan(seed int64) faultnet.Plan {
	return faultnet.Plan{
		Seed:             seed,
		DialFailProb:     0.05,
		ResetProb:        1.0 / 12,
		PartialWriteProb: 1.0 / 15,
		StallProb:        1.0 / 20,
		StallDuration:    150 * time.Millisecond,
		SafeOps:          2,
	}
}

func buildChaosWorld(t *testing.T, seed int64) *chaosWorld {
	t.Helper()
	w := &chaosWorld{
		meta: metaserver.New(metaserver.Config{
			Policy: metaserver.RoundRobin{},
			// Clients multiplex every concurrent call onto one session
			// per server, so a single injected reset fails every
			// in-flight call at once — consecutive breaker failures
			// arrive in correlated bursts. The threshold must exceed a
			// typical burst, or one fault opens the breaker of a
			// perfectly healthy server.
			FailThreshold:   8,
			BreakerCooldown: 300 * time.Millisecond,
		}),
	}
	for i := 0; i < chaosServers; i++ {
		name := fmt.Sprintf("srv%d", i)
		reg, err := library.NewRegistry()
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{Hostname: name, PEs: 4}, reg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		t.Cleanup(func() { s.Close() })
		addr := l.Addr().String()
		in := faultnet.New(chaosPlan(seed + int64(i)))
		dial := in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })
		if err := w.meta.AddServer(name, addr, 100, dial); err != nil {
			t.Fatal(err)
		}
		w.servers = append(w.servers, s)
		w.injectors = append(w.injectors, in)
		w.names = append(w.names, name)
	}
	return w
}

// kill takes server i down the hard way: its network partitions (live
// connections reset mid-transfer, dials refused) and the process
// closes.
func (w *chaosWorld) kill(i int) {
	w.injectors[i].Partition()
	w.servers[i].Close()
}

// chaosWorkload runs the multi-client transaction workload and
// returns every transaction's End error. Each call is dmmul with a
// caller-distinct input, verified against the expected product, so a
// lost or doubly-delivered result is detectable, not just a hang.
func chaosWorkload(t *testing.T, w *chaosWorld, resilient bool, kill func(round int)) (endErrs []error, verified int) {
	t.Helper()
	const n = 8
	type txResult struct {
		err      error
		servers  [][]string
		failover int
	}
	var (
		mu      sync.Mutex
		results []txResult
	)
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < chaosRounds; r++ {
				if c == 0 && kill != nil {
					kill(r)
				}
				tx := ninf.BeginTransaction(w.meta)
				if resilient {
					tx.SetMaxAttempts(2 * chaosServers)
					// Five attempts, not three: on a multiplexed session a
					// call's retry budget also absorbs faults that struck
					// its neighbors' transfers (shared fate), so the budget
					// is sized for bursts, not independent per-call faults.
					tx.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
					tx.SetCallTimeout(2 * time.Second)
				} else {
					tx.SetMaxAttempts(1)
					tx.SetRetryPolicy(ninf.NoRetry)
					tx.SetCallTimeout(2 * time.Second)
				}
				type expect struct {
					got  []float64
					want []float64
				}
				var expects []expect
				for k := 0; k < chaosCallsPerT; k++ {
					a := make([]float64, n*n)
					b := make([]float64, n*n)
					got := make([]float64, n*n)
					for j := range a {
						a[j] = float64((c+1)*(r+1) + j)
						b[j] = float64(j%7) + float64(k)
					}
					want := make([]float64, n*n)
					mmul(n, a, b, want)
					expects = append(expects, expect{got: got, want: want})
					tx.Call("dmmul", n, a, b, got)
				}
				err := tx.EndContext(testContext(t))
				res := txResult{err: err, servers: tx.Servers(), failover: tx.Failovers()}
				if err == nil {
					for _, e := range expects {
						for j := range e.want {
							if e.got[j] != e.want[j] {
								t.Errorf("client %d round %d: result differs at %d: %g vs %g", c, r, j, e.got[j], e.want[j])
								break
							}
						}
						mu.Lock()
						verified++
						mu.Unlock()
					}
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, res := range results {
		endErrs = append(endErrs, res.err)
	}
	return endErrs, verified
}

// mmul is the local reference product dmmul is checked against.
func mmul(n int, a, b, c []float64) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// TestChaosTransactionsSurviveFaults is the acceptance scenario: a
// 3-server / 4-client / 208-call seeded chaos run, including a
// mid-run server kill, completes every call exactly once with correct
// results, and the breaker plus the fault counters prove the faults
// happened and were survived.
func TestChaosTransactionsSurviveFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	w := buildChaosWorld(t, chaosSeed)

	var killOnce sync.Once
	killRound := chaosRounds / 2
	kill := func(round int) {
		if round >= killRound {
			killOnce.Do(func() { w.kill(2) })
		}
	}

	endErrs, verified := chaosWorkload(t, w, true, kill)

	total := chaosClients * chaosRounds * chaosCallsPerT
	if total < 200 {
		t.Fatalf("workload too small: %d calls", total)
	}
	for i, err := range endErrs {
		if err != nil {
			t.Errorf("transaction %d failed: %v", i, err)
		}
	}
	// Exactly-once delivery: every call's result verified exactly one
	// time (chaosWorkload verifies each expected output once per
	// call; a duplicated call would overwrite `got` harmlessly with
	// identical data, a lost call fails End and is counted above).
	if verified != total {
		t.Errorf("verified %d/%d call results", verified, total)
	}

	// The faults actually happened: across the three injectors, every
	// category fired.
	var agg faultnet.Counters
	for i, in := range w.injectors {
		c := in.Counters()
		t.Logf("%s: %v", w.names[i], c)
		agg.Dials += c.Dials
		agg.DialFailures += c.DialFailures
		agg.Resets += c.Resets
		agg.PartialWrites += c.PartialWrites
		agg.Stalls += c.Stalls
	}
	if agg.Total() == 0 {
		t.Fatal("no faults injected: the chaos run proved nothing")
	}
	if agg.DialFailures == 0 || agg.Resets == 0 {
		t.Errorf("fault mix missing a category: %v", agg)
	}

	// The killed server's breaker opened, and no call's final
	// (successful) attempt landed on it after the kill.
	killed := w.names[2]
	sawOpen := false
	for _, ev := range w.meta.BreakerEvents() {
		if ev.Server == killed && ev.To == metaserver.BreakerOpen {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Errorf("breaker for killed server %s never opened; events: %v", killed, w.meta.BreakerEvents())
	}
	for _, s := range w.meta.Servers() {
		if s.Name == killed && s.Breaker == metaserver.BreakerClosed {
			t.Errorf("killed server's breaker ended closed: %+v", s)
		}
	}
}

// TestChaosFailsWithoutRetries is the control: under the same seeded
// faults and mid-run kill, disabling the client retry policy and
// transaction failover makes the workload fail — demonstrating the
// resilience layer, not luck, carries the chaos suite.
func TestChaosFailsWithoutRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	w := buildChaosWorld(t, chaosSeed)
	var killOnce sync.Once
	kill := func(round int) {
		if round >= chaosRounds/2 {
			killOnce.Do(func() { w.kill(2) })
		}
	}
	endErrs, _ := chaosWorkload(t, w, false, kill)
	failed := 0
	for _, err := range endErrs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("every transaction succeeded with retries disabled under chaos; the fault plan is too weak to prove anything")
	}
	t.Logf("without retries: %d/%d transactions failed (as expected)", failed, len(endErrs))
}

// TestChaosDeterministicInjection re-runs one injector's dial sequence
// twice under the same plan and requires identical fault decisions:
// the chaos suite's faults are a function of the seed, not the
// weather.
func TestChaosDeterministicInjection(t *testing.T) {
	run := func() []bool {
		in := faultnet.New(chaosPlan(chaosSeed))
		d := in.Dialer(func() (net.Conn, error) {
			a, b := net.Pipe()
			t.Cleanup(func() { a.Close(); b.Close() })
			return a, nil
		})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			c, err := d()
			outcomes = append(outcomes, err == nil)
			if c != nil {
				c.Close()
			}
		}
		return outcomes
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("dial %d: outcome differs across identically-seeded runs", i)
		}
	}
}

// testContext bounds a whole chaos run so a regression hangs the
// suite for a minute, not forever.
func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestChaosMuxResetNoCorruption: a multiplexed session carries a
// 32-caller dmmul pipeline while the injector resets and cuts frames
// mid-transfer. Every fault kills the whole session — all in-flight
// sequences at once — so the retry layer must re-dial, renegotiate,
// and re-run without ever crossing one caller's reply into another's
// buffers. Per-caller-distinct inputs make demux corruption visible
// as a wrong product, not just a failed call.
func TestChaosMuxResetNoCorruption(t *testing.T) {
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Hostname: "muxchaos", PEs: 4}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()

	in := faultnet.New(faultnet.Plan{
		Seed:             chaosSeed + 7,
		ResetProb:        1.0 / 80,
		PartialWriteProb: 1.0 / 80,
		SafeOps:          4, // let the Hello handshake land; faults hit call transfers
	})
	c, err := ninf.NewClient(in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// Sized like the calibrated chaos policy: one fault fails every
	// in-flight call on the shared session, so budgets absorb bursts.
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})

	const n, callers, rounds = 8, 32, 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := make([]float64, n*n)
				b := make([]float64, n*n)
				got := make([]float64, n*n)
				for j := range a {
					a[j] = float64((w+1)*(r+2) + j)
					b[j] = float64(j%5 + w)
				}
				want := make([]float64, n*n)
				mmul(n, a, b, want)
				if _, err := c.Call("dmmul", n, a, b, got); err != nil {
					errs[w] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errs[w] = fmt.Errorf("round %d: result differs at %d: %g vs %g", r, j, got[j], want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", w, err)
		}
	}

	if cnt := in.Counters(); cnt.Resets+cnt.PartialWrites == 0 {
		t.Fatalf("no resets or mid-frame cuts injected (%v): the run proved nothing", cnt)
	}
	// The client is still multiplexing: the faults cost sessions, never
	// the protocol version. One sample cannot show that — the injector
	// counts operations per connection, so the probe's own session can
	// take a reset on the idle read right after its reply and be
	// legitimately dead when sampled. A client that had really fallen
	// back to lockstep would be off the mux path after every probe.
	multiplexed := false
	for probe := 0; probe < 10 && !multiplexed; probe++ {
		callOnce(t, c)
		multiplexed = c.Multiplexed()
	}
	t.Logf("injected: %v", in.Counters())
	if !multiplexed {
		t.Error("client is stuck off the mux path after session faults")
	}
}

// TestChaosMuxPartitionFailover: a 64-call transaction pipelines over
// one server's mux session; mid-pipeline the server partitions (live
// connections reset, new dials refused). Every call must complete
// exactly once — the severed ones re-dialed onto the surviving server
// by the metaserver's failover — with verified results and the
// injector's counters proving the partition actually struck.
func TestChaosMuxPartitionFailover(t *testing.T) {
	meta := metaserver.New(metaserver.Config{
		Policy:          metaserver.RoundRobin{},
		FailThreshold:   8, // correlated session-death bursts, as in buildChaosWorld
		BreakerCooldown: 300 * time.Millisecond,
	})
	var injectors []*faultnet.Injector
	var servers []*server.Server
	for i := 0; i < 2; i++ {
		reg, err := library.NewRegistry()
		if err != nil {
			t.Fatal(err)
		}
		// srv0 serializes execution (PEs: 1) so the 64-call pipeline is
		// still in flight when the partition strikes it.
		pes := 1
		if i == 1 {
			pes = 4
		}
		s := server.New(server.Config{Hostname: fmt.Sprintf("part%d", i), PEs: pes}, reg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		t.Cleanup(func() { s.Close() })
		addr := l.Addr().String()
		in := faultnet.New(faultnet.Plan{}) // no probabilistic faults: the partition is the event
		if err := meta.AddServer(fmt.Sprintf("part%d", i), addr, 100, in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })); err != nil {
			t.Fatal(err)
		}
		injectors = append(injectors, in)
		servers = append(servers, s)
	}

	// n = 96 makes a call ~0.2 ms of dmmul on the vector kernel: with
	// srv0 executing one at a time its half of the pipeline takes ~6 ms,
	// so the 200 µs poll below strikes while most of it is still queued
	// there. At n = 64 (~0.07 ms) the pipeline could drain before the
	// failover probed srv0 again (no refused re-dial), about 1 run in 20.
	const n, calls = 96, 64
	tx := ninf.BeginTransaction(meta)
	tx.SetMaxAttempts(4)
	tx.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	tx.SetCallTimeout(5 * time.Second)
	type expect struct{ got, want []float64 }
	var expects []expect
	for k := 0; k < calls; k++ {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		got := make([]float64, n*n)
		for j := range a {
			a[j] = float64(k + j)
			b[j] = float64(j%9 + 1)
		}
		want := make([]float64, n*n)
		mmul(n, a, b, want)
		expects = append(expects, expect{got: got, want: want})
		tx.Call("dmmul", n, a, b, got)
	}

	// Partition srv0 once the pipeline is demonstrably in flight on it.
	partitioned := make(chan struct{})
	go func() {
		defer close(partitioned)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if servers[0].Stats().TotalCalls >= 4 {
				injectors[0].Partition()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	if err := tx.EndContext(testContext(t)); err != nil {
		t.Fatalf("transaction failed across the partition: %v", err)
	}
	<-partitioned
	if !injectors[0].Partitioned() {
		t.Fatal("partition never fired: the pipeline drained before it was in flight")
	}

	for k, e := range expects {
		for j := range e.want {
			if e.got[j] != e.want[j] {
				t.Errorf("call %d: result differs at %d: %g vs %g", k, j, e.got[j], e.want[j])
				break
			}
		}
	}
	// The failover carried real traffic: the survivor executed calls,
	// and the partition refused at least one re-dial of the dead server.
	if got := servers[1].Stats().TotalCalls; got == 0 {
		t.Error("surviving server executed nothing; no failover happened")
	}
	cnt := injectors[0].Counters()
	t.Logf("partitioned server injected: %v", cnt)
	if cnt.DialFailures == 0 {
		t.Error("no re-dial of the partitioned server was refused; the retry layer never probed it")
	}
}

// TestChaosBulkMidStreamCutExactlyOnce (PR 6 satellite): a mixed
// pipeline — small 8-byte pings and multi-megabyte chunked echoes —
// runs over one multiplexed session while the injector resets and
// cuts connections mid-transfer. Large transfers span hundreds of
// chunk frames, so the seeded resets land inside bulk streams, not
// between them. Every call must still complete exactly once with
// byte-correct results after retry, and no half-reassembled bulk
// buffer may survive on either side (the gauge counts both).
func TestChaosBulkMidStreamCutExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Hostname: "bulkchaos", PEs: 4, BulkThreshold: 4096}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()

	// Transfers are long (a 2 MiB echo is ~16 chunk frames each way plus
	// the pings interleaved between them), so even a low per-op fault
	// rate strikes mid-bulk; SafeOps shields only the Hello handshake.
	in := faultnet.New(faultnet.Plan{
		Seed:             chaosSeed + 21,
		ResetProb:        1.0 / 300,
		PartialWriteProb: 1.0 / 300,
		SafeOps:          4,
	})
	c, err := ninf.NewClient(in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetBulkThreshold(4096)
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 10, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})

	const bulkCallers, bulkRounds = 3, 3
	const smallCallers, smallRounds = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, bulkCallers*bulkRounds+smallCallers*smallRounds)
	for w := 0; w < bulkCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 256 << 10 // 2 MiB per direction
			for r := 0; r < bulkRounds; r++ {
				data := make([]float64, n)
				for j := range data {
					data[j] = float64((w+1)*(r+1)) + float64(j%1021)
				}
				got := make([]float64, n)
				if _, err := c.Call("echo", n, data, got); err != nil {
					errs <- fmt.Errorf("bulk caller %d round %d: %w", w, r, err)
					return
				}
				for j := range data {
					if got[j] != data[j] {
						errs <- fmt.Errorf("bulk caller %d round %d: corrupted at %d", w, r, j)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < smallCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < smallRounds; r++ {
				data := []float64{float64(w*1000 + r)} // 8-byte payload
				got := make([]float64, 1)
				if _, err := c.Call("echo", 1, data, got); err != nil {
					errs <- fmt.Errorf("small caller %d round %d: %w", w, r, err)
					return
				}
				if got[0] != data[0] {
					errs <- fmt.Errorf("small caller %d round %d: corrupted", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cnt := in.Counters()
	t.Logf("injected: %v", cnt)
	if cnt.Resets+cnt.PartialWrites == 0 {
		t.Fatal("no mid-stream faults injected: the run proved nothing")
	}
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("half-reassembled bulk buffers leaked across session deaths: gauge = %d", g)
	}
}

// TestChaosBulkPartitionHeals: the connection partitions outright in
// the middle of a mixed 8 B / multi-MiB pipeline, then heals. The
// in-flight bulk transfers die with the session; the retry layer must
// re-dial after the heal and finish every call exactly once, leaving
// no orphaned reassembly buffers from the severed streams.
func TestChaosBulkPartitionHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is seconds-long; skipped in -short")
	}
	reg, err := library.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Hostname: "bulkpart", PEs: 4, BulkThreshold: 4096}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()

	in := faultnet.New(faultnet.Plan{}) // the partition is the only event
	c, err := ninf.NewClient(in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetBulkThreshold(4096)
	c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 12, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond})

	// Partition once bulk traffic is demonstrably flowing, heal shortly
	// after so retries can land.
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if s.Stats().TotalCalls >= 2 {
				in.Partition()
				time.Sleep(50 * time.Millisecond)
				in.Heal()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const bulkCallers = 2
	const smallCallers, smallRounds = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < bulkCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 512 << 10 // 4 MiB per direction: in flight when the cut lands
			for r := 0; r < 2; r++ {
				data := make([]float64, n)
				for j := range data {
					data[j] = float64(w*7+r) + float64(j%509)
				}
				got := make([]float64, n)
				if _, err := c.Call("echo", n, data, got); err != nil {
					errs <- fmt.Errorf("bulk caller %d round %d: %w", w, r, err)
					return
				}
				for j := range data {
					if got[j] != data[j] {
						errs <- fmt.Errorf("bulk caller %d round %d: corrupted at %d", w, r, j)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < smallCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < smallRounds; r++ {
				data := []float64{float64(w + r)}
				got := make([]float64, 1)
				if _, err := c.Call("echo", 1, data, got); err != nil {
					errs <- fmt.Errorf("small caller %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cnt := in.Counters()
	t.Logf("partition injected: %v", cnt)
	if cnt.Resets == 0 && cnt.DialFailures == 0 {
		t.Fatal("partition never struck live traffic: the run proved nothing")
	}
	if g := protocol.OpenBulkReassemblies(); g != 0 {
		t.Fatalf("partition leaked reassembly buffers: gauge = %d", g)
	}
}
