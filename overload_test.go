package ninf_test

// End-to-end overload control: a multiplexed pipeline survives a
// graceful drain with every in-flight reply flushed, and an 8-client
// overload storm against a 1-PE MaxQueue-bounded server — under seeded
// stall faults — completes with no silent loss while the per-client
// retry budget clamps attempt amplification (a no-budget control run
// proves the clamp is real).

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/idl"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// overloadRegistry registers the overload-suite routines: spin (sleep
// ms, then double v into w), hold (block until the gate closes, then
// double v into w), and noop.
func overloadRegistry(t *testing.T) (*server.Registry, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	reg := server.NewRegistry()
	err := reg.RegisterIDL(`
Define spin(mode_in int ms, mode_in int n, mode_in double v[n], mode_out double w[n])
    Calls "go" spin(ms, n, v, w);
Define hold(mode_in int n, mode_in double v[n], mode_out double w[n])
    Calls "go" hold(n, v, w);
Define noop(mode_in int n)
    Calls "go" noop(n);
`, map[string]server.Handler{
		"spin": func(ctx context.Context, args []idl.Value) error {
			ms := args[0].(int64)
			select {
			case <-time.After(time.Duration(ms) * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
			v := args[2].([]float64)
			w := args[3].([]float64)
			for i := range v {
				w[i] = 2 * v[i]
			}
			return nil
		},
		"hold": func(ctx context.Context, args []idl.Value) error {
			select {
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
			v := args[1].([]float64)
			w := args[2].([]float64)
			for i := range v {
				w[i] = 2 * v[i]
			}
			return nil
		},
		"noop": func(context.Context, []idl.Value) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, gate
}

// TestDrainMuxSessionFlushesPipeline: 32 calls pipeline onto one mux
// session and park on a gated routine; the server drains mid-flight.
// Every admitted call must complete with a correct, flushed reply; a
// call arriving during the drain must be refused with CodeOverloaded
// and a retry-after hint; and the drain itself must finish cleanly.
func TestDrainMuxSessionFlushesPipeline(t *testing.T) {
	reg, gate := overloadRegistry(t)
	s := server.New(server.Config{Hostname: "drain", PEs: 1}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()
	c := newClient(t, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	c.SetRetryPolicy(ninf.NoRetry)

	if _, err := c.Call("noop", 1); err != nil {
		t.Fatal(err)
	}
	if !c.Multiplexed() {
		t.Fatal("client did not negotiate a mux session")
	}

	const pipeline = 32
	outs := make([][]float64, pipeline)
	errs := make([]error, pipeline)
	var wg sync.WaitGroup
	for i := 0; i < pipeline; i++ {
		outs[i] = make([]float64, 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call("hold", 1, []float64{float64(i + 1)}, outs[i])
		}(i)
	}

	// Wait until every call is admitted (1 running + 31 queued), so the
	// drain demonstrably races in-flight work, not an empty server.
	waitUntil(t, 10*time.Second, func() bool {
		st := s.Stats()
		return st.Running+st.Queued == pipeline
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()
	waitUntil(t, 10*time.Second, s.Draining)

	// New work during the drain is refused with a steer-away hint.
	_, err = c.Call("noop", 2)
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeOverloaded {
		t.Fatalf("call during drain: %v, want CodeOverloaded", err)
	}
	if re.RetryAfterMillis == 0 {
		t.Error("drain rejection carries no retry-after hint")
	}

	close(gate)
	wg.Wait()
	for i := 0; i < pipeline; i++ {
		if errs[i] != nil {
			t.Errorf("pipelined call %d: %v", i, errs[i])
		} else if outs[i][0] != float64(2*(i+1)) {
			t.Errorf("pipelined call %d: result %v, want %v", i, outs[i][0], 2*(i+1))
		}
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain = %v", err)
	}
	if got := s.Overload().RejectedDraining; got == 0 {
		t.Error("RejectedDraining = 0; the drain rejection never hit the counter")
	}
}

// TestFetchOfShedJobReturnsItsOutcome: a two-phase job shed in the
// queue has CodeOverloaded as its outcome. A waiting fetch returns that
// error from the poll that finds it — no retry, no sleep on the
// server's retry-after hint — and not a RetryError: asking again gets
// the same answer, so the caller submits the call again instead.
func TestFetchOfShedJobReturnsItsOutcome(t *testing.T) {
	reg, gate := overloadRegistry(t)
	s := server.New(server.Config{Hostname: "shed", PEs: 1}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	dial := func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }

	// Hold the one PE, then queue a job whose deadline lapses behind it.
	held := make(chan error, 1)
	go func() {
		_, err := newClient(t, dial).Call("hold", 1, []float64{1}, make([]float64, 1))
		held <- err
	}()
	waitUntil(t, 10*time.Second, func() bool { return s.Stats().Running == 1 })
	c := newClient(t, dial)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	job, err := c.SubmitContext(ctx, "noop", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	cancel()
	close(gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool { return s.Overload().ShedExpired == 1 })

	before := c.Attempts()
	_, err = job.FetchContext(context.Background(), true)
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeOverloaded {
		t.Fatalf("fetch of a shed job = %v, want its CodeOverloaded", err)
	}
	var rerr *ninf.RetryError
	if errors.As(err, &rerr) {
		t.Errorf("fetch of a shed job retried it: %v", err)
	}
	if n := c.Attempts() - before; n != 1 {
		t.Errorf("fetch of a shed job made %d exchanges, want 1", n)
	}
}

// waitUntil polls cond until true or the deadline fails the test.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// Storm dimensions: 8 clients × 3 workers × 4 rounds of 20ms jobs
// against one PE with a 4-deep queue.
const (
	stormClients = 8
	stormWorkers = 3
	stormRounds  = 4
	stormSpinMS  = 20
	stormBurst   = 4 // per-client retry allowance (Rate 0: non-replenishing)
	stormSeed    = 515151
)

// stormResult aggregates one storm run.
type stormResult struct {
	successes int
	failures  int
	attempts  int64 // total attempts across all clients
	overload  server.OverloadStats
	stalls    int64
}

// runOverloadStorm builds a fresh 1-PE MaxQueue-bounded server behind
// a seeded stall injector and hammers it from stormClients clients.
// Phase one primes the shed path: with no service history the server
// admits optimistically, so short-deadline calls queued behind a long
// job expire in queue and are shed at dispatch. Phase two is the
// storm: every call carries a generous deadline and distinct inputs,
// and every outcome is either a verified result or an explicit error —
// a hang fails the run's bounded context.
func runOverloadStorm(t *testing.T, budget ninf.RetryBudget) stormResult {
	t.Helper()
	reg, _ := overloadRegistry(t)
	s := server.New(server.Config{Hostname: "storm", PEs: 1, MaxQueue: 4, MaxPerClient: -1}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()

	in := faultnet.New(faultnet.Plan{
		Seed:          stormSeed,
		StallProb:     1.0 / 25,
		StallDuration: 100 * time.Millisecond,
		SafeOps:       2,
	})
	dial := in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	parent := testContext(t)

	// Phase one: prime the shed path. A 200ms job holds the PE while
	// four 40ms-deadline calls are admitted behind it (no history yet,
	// so admission is optimistic); by dispatch their deadlines have
	// lapsed and they must be shed, not executed.
	primer := newClient(t, dial)
	primer.SetRetryPolicy(ninf.NoRetry)
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		out := make([]float64, 1)
		primer.CallContext(parent, "spin", 200, 1, []float64{1}, out)
	}()
	waitUntil(t, 10*time.Second, func() bool { return s.Stats().Running == 1 })
	for i := 0; i < 4; i++ {
		pwg.Add(1)
		go func(i int) {
			defer pwg.Done()
			ctx, cancel := context.WithTimeout(parent, 40*time.Millisecond)
			defer cancel()
			out := make([]float64, 1)
			primer.CallContext(ctx, "spin", 1, 1, []float64{float64(i)}, out) // expected to be shed
		}(i)
	}
	pwg.Wait()

	// Phase two: the storm.
	var (
		res     stormResult
		mu      sync.Mutex
		wg      sync.WaitGroup
		clients []*ninf.Client
	)
	for ci := 0; ci < stormClients; ci++ {
		c := newClient(t, dial)
		c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
		c.SetRetryBudget(budget)
		clients = append(clients, c)
		for wi := 0; wi < stormWorkers; wi++ {
			wg.Add(1)
			go func(ci, wi int, c *ninf.Client) {
				defer wg.Done()
				for r := 0; r < stormRounds; r++ {
					ctx, cancel := context.WithTimeout(parent, 10*time.Second)
					v := float64(ci*1000 + wi*100 + r + 1)
					out := make([]float64, 1)
					_, err := c.CallContext(ctx, "spin", stormSpinMS, 1, []float64{v}, out)
					cancel()
					mu.Lock()
					if err != nil {
						res.failures++
					} else if out[0] != 2*v {
						t.Errorf("client %d worker %d round %d: result %v, want %v", ci, wi, r, out[0], 2*v)
					} else {
						res.successes++
					}
					mu.Unlock()
				}
			}(ci, wi, c)
		}
	}
	wg.Wait()
	for _, c := range clients {
		res.attempts += c.Attempts()
	}
	res.overload = s.Overload()
	res.stalls = int64(in.Counters().Stalls)
	return res
}

// stormTotal is every storm-phase call across all clients; stormCap is
// the hard attempt ceiling the budget enforces (first tries are free,
// retries spend the non-replenishing per-client burst).
const (
	stormTotal = stormClients * stormWorkers * stormRounds
	stormCap   = stormTotal + stormClients*stormBurst
)

// TestChaosOverloadStorm: under seeded stalls and sustained overload,
// every call ends in a verified result or an explicit error (no silent
// loss, no hung waiters — the bounded context converts a hang into a
// failure), the server demonstrably shed expired work and rejected at
// the queue limit, and total attempts stay under the budget's hard
// ceiling.
func TestChaosOverloadStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("overload storm is seconds-long; skipped in -short")
	}
	res := runOverloadStorm(t, ninf.RetryBudget{Burst: stormBurst, Rate: 0})
	t.Logf("storm: %d ok, %d failed, %d attempts (cap %d), overload %+v, stalls %d",
		res.successes, res.failures, res.attempts, stormCap, res.overload, res.stalls)

	if res.successes+res.failures != stormTotal {
		t.Errorf("outcomes %d+%d != %d calls: work was silently lost",
			res.successes, res.failures, stormTotal)
	}
	if res.successes == 0 {
		t.Error("no call succeeded; the storm drowned the server entirely")
	}
	if res.overload.ShedExpired == 0 {
		t.Error("ShedExpired = 0: the shed path never fired")
	}
	if res.overload.RejectedQueue == 0 {
		t.Error("RejectedQueue = 0: the storm never hit the queue limit")
	}
	if res.attempts > stormCap {
		t.Errorf("attempts %d exceed the budget ceiling %d", res.attempts, stormCap)
	}
	if res.stalls == 0 {
		t.Error("no stalls injected: the chaos component proved nothing")
	}
}

// TestChaosOverloadStormNoBudgetControl is the control run: identical
// storm, with a budget too large to drain. Attempt amplification must blow past the
// ceiling the budgeted run respects — proving the budget (not a gentle
// workload) bounded the attempts above.
func TestChaosOverloadStormNoBudgetControl(t *testing.T) {
	if testing.Short() {
		t.Skip("overload storm is seconds-long; skipped in -short")
	}
	res := runOverloadStorm(t, ninf.RetryBudget{Burst: 1 << 30})
	t.Logf("control: %d ok, %d failed, %d attempts (cap %d)",
		res.successes, res.failures, res.attempts, stormCap)
	if res.successes+res.failures != stormTotal {
		t.Errorf("outcomes %d+%d != %d calls", res.successes, res.failures, stormTotal)
	}
	if res.attempts <= stormCap {
		t.Errorf("unbudgeted attempts %d did not exceed the ceiling %d; the storm is too weak to prove the budget matters",
			res.attempts, stormCap)
	}
}
