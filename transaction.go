package ninf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"time"

	"ninf/internal/idl"
	"ninf/internal/placement"
	"ninf/internal/protocol"
)

// SchedRequest describes one pending Ninf_call for placement by a
// Scheduler; see placement.Request.
type SchedRequest = placement.Request

// Placement names a chosen server and how to reach it.
type Placement struct {
	Name string
	Dial func() (net.Conn, error)
	// Degraded marks a placement made from a client-local cache while
	// no scheduler authority (e.g. any metaserver replica) was
	// reachable: the routing may be stale, but the call can still run.
	Degraded bool
}

// A Scheduler places Ninf_calls on computational servers and receives
// feedback about completed calls. The metaserver implements this; so
// does a trivial single-server scheduler. A transaction follows every
// placement it takes — interface fetches included — with exactly one
// Observe of that attempt's outcome: its bytes and time on success,
// its error (nil on success). So the scheduler can track per-server
// achievable bandwidth, the quantity the paper shows must drive
// placement in WAN settings (§4.2.3), and server health, telling an
// overload rejection from a failure by the error itself, and settle
// what it reserved at placement (a queue slot, a half-open probe).
type Scheduler interface {
	Place(req SchedRequest) (Placement, error)
	Observe(serverName string, bytes int64, elapsed time.Duration, callErr error)
}

// SingleServer returns a Scheduler that places every call on one
// server: the degenerate case of a metaserver, useful for tests and
// for running transaction code against a lone server.
func SingleServer(name string, dial func() (net.Conn, error)) Scheduler {
	return &singleServer{name: name, dial: dial}
}

type singleServer struct {
	name string
	dial func() (net.Conn, error)
}

func (s *singleServer) Place(req SchedRequest) (Placement, error) {
	for _, x := range req.Exclude {
		if x == s.name {
			return Placement{}, fmt.Errorf("ninf: only server %q is excluded", s.name)
		}
	}
	return Placement{Name: s.name, Dial: s.dial}, nil
}

func (s *singleServer) Observe(string, int64, time.Duration, error) {}

// A Transaction is a Ninf_transaction_begin/end block (§2.4): the
// calls recorded inside it are not executed immediately; a data-
// dependency graph over their arguments is built, and End schedules
// independent calls to (possibly many) computational servers in
// parallel, retrying failed calls on other servers.
type Transaction struct {
	sched       Scheduler
	maxAttempts int
	callTimeout time.Duration
	retry       RetryPolicy
	haveRetry   bool

	mu        sync.Mutex
	calls     []*txCall
	clients   map[string]*Client
	ended     bool
	failovers int
	degraded  int
}

type txCall struct {
	name string
	args []any

	reads  []uintptr
	writes []uintptr

	deps    []int // indices of earlier calls this one must follow
	report  *Report
	err     error
	servers []string // servers tried, for exclusion on retry

	// execOn is the server that executed the call (set before the
	// call's done channel closes); affinity is the data-producing
	// dependency's execOn, preferred at placement so the downstream
	// call lands where its operands are already cached.
	execOn   string
	affinity string
}

// BeginTransaction opens a transaction over the given scheduler.
func BeginTransaction(s Scheduler) *Transaction {
	return &Transaction{sched: s, maxAttempts: 3, clients: make(map[string]*Client)}
}

// SetMaxAttempts adjusts how many servers a failing call is tried on
// before the transaction reports the failure (default 3).
func (tx *Transaction) SetMaxAttempts(n int) {
	if n > 0 {
		tx.maxAttempts = n
	}
}

// SetCallTimeout bounds each placed call attempt: a call stuck on a
// stalled connection or a server that died mid-transfer is severed
// after d and failed over to the next server, instead of holding the
// whole transaction hostage. Zero (the default) means no per-call
// deadline beyond the context passed to EndContext.
func (tx *Transaction) SetCallTimeout(d time.Duration) {
	if d > 0 {
		tx.callTimeout = d
	}
}

// SetRetryPolicy sets the transport-level retry policy of the clients
// the transaction creates; see Client.SetRetryPolicy. This is the
// inner retry loop (same server, fresh connection); SetMaxAttempts
// governs the outer loop (fail over to another server).
func (tx *Transaction) SetRetryPolicy(p RetryPolicy) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.retry = p
	tx.haveRetry = true
	for _, c := range tx.clients {
		c.SetRetryPolicy(p)
	}
}

// Failovers reports how many times an interface fetch or a call was
// re-placed after failing on a server — the transaction's observable
// fault-tolerance work.
func (tx *Transaction) Failovers() int {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.failovers
}

// DegradedPlacements reports how many of the transaction's placements
// carried the Degraded marker — calls routed from a client-local cache
// because no scheduler authority was reachable.
func (tx *Transaction) DegradedPlacements() int {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.degraded
}

// Servers returns, per recorded call, the names of the servers the
// call was attempted on in order; the last entry of a successful
// call's list is the server that executed it.
func (tx *Transaction) Servers() [][]string {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	out := make([][]string, len(tx.calls))
	for i, c := range tx.calls {
		out[i] = append([]string(nil), c.servers...)
	}
	return out
}

// Call records one Ninf_call in the transaction. Argument conventions
// match Client.Call. Nothing executes until End.
func (tx *Transaction) Call(name string, args ...any) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.calls = append(tx.calls, &txCall{name: name, args: args})
}

// Reports returns the per-call reports after End, in Call order.
// Entries whose call failed are nil.
func (tx *Transaction) Reports() []*Report {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	out := make([]*Report, len(tx.calls))
	for i, c := range tx.calls {
		out[i] = c.report
	}
	return out
}

// Errs returns the per-call errors after End, in Call order.
func (tx *Transaction) Errs() []error {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	out := make([]error, len(tx.calls))
	for i, c := range tx.calls {
		out[i] = c.err
	}
	return out
}

// End closes the block: it fetches the interfaces of the routines
// involved, builds the dependency DAG over the recorded arguments,
// executes independent calls concurrently on scheduler-placed servers
// with fault-tolerant retry, and waits for everything. It returns the
// first error if any call ultimately failed.
func (tx *Transaction) End() error {
	return tx.EndContext(context.Background())
}

// EndContext is End bounded by ctx: cancellation abandons calls not
// yet placed and severs in-flight exchanges via per-call contexts.
func (tx *Transaction) EndContext(ctx context.Context) error {
	tx.mu.Lock()
	if tx.ended {
		tx.mu.Unlock()
		return errors.New("ninf: transaction already ended")
	}
	tx.ended = true
	calls := tx.calls
	tx.mu.Unlock()
	defer tx.closeClients()

	if len(calls) == 0 {
		return nil
	}

	// Fetch each distinct routine's interface once so argument modes
	// are known for precise dependency analysis.
	infos := make(map[string]*idl.Info)
	for _, c := range calls {
		if _, ok := infos[c.name]; ok {
			continue
		}
		var info *idl.Info
		var tried []string // Servers() lists calls only
		_, err := tx.attempt(ctx, SchedRequest{Routine: c.name}, &tried, func(ctx context.Context, cl *Client) (int64, time.Duration, error) {
			var err error
			info, err = cl.InterfaceContext(ctx, c.name)
			return 0, 0, err
		})
		if err != nil {
			return fmt.Errorf("ninf: transaction: %w", err)
		}
		infos[c.name] = info
	}

	for _, c := range calls {
		c.analyze(infos[c.name])
	}
	buildDeps(calls)

	// Execute in dependency order: launch every call whose deps are
	// done, wait for completions, repeat.
	done := make([]chan struct{}, len(calls))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func(i int, c *txCall) {
			defer wg.Done()
			defer close(done[i])
			for _, d := range c.deps {
				<-done[d]
				if calls[d].err != nil {
					c.err = fmt.Errorf("ninf: dependency %s failed: %w", calls[d].name, calls[d].err)
					return
				}
				// Data flows from d into this call: prefer the server
				// whose cache just produced (and retained) the operand.
				if calls[d].execOn != "" && intersects(calls[d].writes, c.reads) {
					c.affinity = calls[d].execOn
				}
			}
			c.report, c.err = tx.execute(ctx, infos[c.name], c)
		}(i, c)
	}
	wg.Wait()

	for _, c := range calls {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// execute runs one call through attempt, placed with its sizes, cost
// and data affinity.
func (tx *Transaction) execute(ctx context.Context, info *idl.Info, c *txCall) (*Report, error) {
	// The interface sizes and costs the call for the scheduler; a call
	// it cannot size is placed as if empty; the call reports the error.
	req := SchedRequest{Routine: c.name, Affinity: c.affinity}
	if vals, err := toValues(info, c.args); err == nil {
		req.InBytes, req.OutBytes, _ = info.TransferBytes(vals)
		req.Ops, _ = info.PredictedOps(vals)
	}
	var rep *Report
	on, err := tx.attempt(ctx, req, &c.servers, func(ctx context.Context, cl *Client) (int64, time.Duration, error) {
		var err error
		if rep, err = cl.CallContext(ctx, c.name, c.args...); err != nil {
			return 0, 0, err
		}
		return rep.BytesOut + rep.BytesIn, rep.Total(), nil
	})
	if err != nil {
		return nil, err
	}
	c.execOn = on
	return rep, nil
}

// attempt is the transaction's one placement loop, behind both the
// interface fetches and the calls: place req, dial, run op on the
// chosen server, and report the outcome — op's traffic on success, its
// error otherwise — with exactly one Observe per placement taken. A
// server op fails on (after the client's inner transport retries) is
// excluded from re-placement and the call reroutes to the next-best
// live server, re-executing the Ninf_call as §5 prescribes; each
// placement is appended to *tried under tx.mu. "No eligible server"
// from the scheduler — likely every breaker open or every candidate
// excluded — clears the exclusions (a failed server may have
// recovered) and waits out a slice of breaker cooldown before asking
// again. It returns the server op succeeded on.
func (tx *Transaction) attempt(ctx context.Context, req SchedRequest, tried *[]string, op func(context.Context, *Client) (int64, time.Duration, error)) (string, error) {
	var lastErr error
	for attempt := 0; attempt < tx.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return "", chainErr(err, lastErr)
		}
		pl, err := tx.sched.Place(req)
		if err != nil {
			lastErr = chainErr(err, lastErr)
			if attempt == tx.maxAttempts-1 {
				return "", lastErr
			}
			req.Exclude = nil
			if serr := sleepCtx(ctx, placementBackoff(attempt)); serr != nil {
				return "", chainErr(serr, lastErr)
			}
			continue
		}
		tx.mu.Lock()
		if len(*tried) > 0 {
			tx.failovers++
		}
		*tried = append(*tried, pl.Name)
		if pl.Degraded {
			tx.degraded++
		}
		tx.mu.Unlock()
		// The call timeout bounds the dial as well as the call.
		callCtx, cancel := tx.callContext(ctx)
		var bytes int64
		var took time.Duration
		client, err := tx.client(callCtx, pl)
		if err == nil {
			bytes, took, err = op(callCtx, client)
		}
		cancel()
		tx.sched.Observe(pl.Name, bytes, took, err)
		if err == nil {
			return pl.Name, nil
		}
		lastErr = err
		if !staleData(err) {
			// A stale-data failure — the server answered but its
			// resident data is gone, a cache miss or stale handle after
			// a restart — indicts the cached operands, not the server:
			// it stays a candidate, so re-placement (affinity included)
			// may land back there and re-upload them.
			req.Exclude = append(req.Exclude, pl.Name)
		}
	}
	return "", fmt.Errorf("ninf: %s failed on %d servers: %w", req.Routine, tx.maxAttempts, lastErr)
}

// chainErr reports err with the error of the attempt before it, if any.
func chainErr(err, earlier error) error {
	if earlier == nil {
		return err
	}
	return fmt.Errorf("%w (after: %v)", err, earlier)
}

// staleData reports whether a call failed only because server-resident
// data vanished: a stale data handle or a cache miss, the two
// signatures of a server restart (incarnation epoch change) observed
// mid-transaction. Such a failure indicts the cached operands, not the
// server.
func staleData(err error) bool {
	if errors.Is(err, ErrStaleHandle) {
		return true
	}
	var re *protocol.RemoteError
	return errors.As(err, &re) && re.Code == protocol.CodeCacheMiss
}

// placementBackoff is how long a call waits before re-asking the
// scheduler for a placement after "no eligible server". The ramp
// (equal jitter, 25ms doubling to a 500ms cap) is sized to outlast a
// breaker cooldown within a few attempts, so a transient
// everything-is-open state heals instead of failing the call.
func placementBackoff(attempt int) time.Duration {
	d := 25 * time.Millisecond << uint(attempt)
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// callContext derives the per-attempt context from the transaction's
// call timeout.
func (tx *Transaction) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if tx.callTimeout > 0 {
		return context.WithTimeout(ctx, tx.callTimeout)
	}
	return context.WithCancel(ctx)
}

// client returns the transaction's client for pl's server, dialing it
// on first use. The dial runs outside tx.mu, so a stalled dial holds
// up only the call waiting on it, and ctx bounds it: a placement's
// dialer takes no context, so a dial that outlives ctx is left to
// finish on its own and its client closed.
func (tx *Transaction) client(ctx context.Context, pl Placement) (*Client, error) {
	tx.mu.Lock()
	c, ok := tx.clients[pl.Name]
	tx.mu.Unlock()
	if ok {
		return c, nil
	}
	type dialed struct {
		c   *Client
		err error
	}
	ch := make(chan dialed)
	go func() {
		c, err := NewClient(pl.Dial)
		select {
		case ch <- dialed{c, err}:
		case <-ctx.Done():
			if c != nil {
				c.Close()
			}
		}
	}()
	var d dialed
	select {
	case d = <-ch:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if d.err != nil {
		return nil, d.err
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if c, ok := tx.clients[pl.Name]; ok {
		// Another call dialed the same server meanwhile.
		d.c.Close()
		return c, nil
	}
	c = d.c
	// Transactions always ask for result retention: a cache-enabled
	// server keeps each call's large results resident, so a dependent
	// call placed there (via SchedRequest.Affinity) passes them back by
	// digest instead of round-tripping the bytes through the client.
	// A no-op against servers that grant no cache.
	c.SetRetainResults(true)
	if tx.haveRetry {
		c.SetRetryPolicy(tx.retry)
	}
	tx.clients[pl.Name] = c
	return c, nil
}

func (tx *Transaction) closeClients() {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	for _, c := range tx.clients {
		c.Close()
	}
	tx.clients = make(map[string]*Client)
}

// analyze computes the call's read and write sets: the identities of
// the mutable argument values it consumes and produces, classified by
// the IDL access modes.
func (c *txCall) analyze(info *idl.Info) {
	for i, a := range c.args {
		if a == nil || i >= len(info.Params) {
			continue
		}
		id, mutable := valueID(a)
		if !mutable {
			continue
		}
		m := info.Params[i].Mode
		if m.Ships(false) {
			c.reads = append(c.reads, id)
		}
		if m.Ships(true) {
			c.writes = append(c.writes, id)
		}
	}
}

// valueID returns a stable identity for slice and pointer arguments
// (the data pointer), and reports whether the argument is a mutable
// aggregate at all.
func valueID(a any) (uintptr, bool) {
	v := reflect.ValueOf(a)
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return 0, false
		}
		return v.Pointer(), true
	case reflect.Pointer:
		return v.Pointer(), true
	default:
		return 0, false
	}
}

// buildDeps adds an edge from every earlier call A to a later call B
// when they conflict: A writes something B reads or writes, or A reads
// something B writes. Program order is preserved for conflicting
// pairs; disjoint calls run in parallel.
func buildDeps(calls []*txCall) {
	for j := 1; j < len(calls); j++ {
		b := calls[j]
		for i := 0; i < j; i++ {
			a := calls[i]
			if intersects(a.writes, b.reads) || intersects(a.writes, b.writes) || intersects(a.reads, b.writes) {
				b.deps = append(b.deps, i)
			}
		}
	}
}

func intersects(x, y []uintptr) bool {
	for _, a := range x {
		for _, b := range y {
			if a == b {
				return true
			}
		}
	}
	return false
}
