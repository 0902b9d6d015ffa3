// Package ninf is the client API of a Go reproduction of Ninf, the
// global computing system of Sato et al., as benchmarked in "Multi-
// client LAN/WAN Performance Analysis of Ninf" (SC'97).
//
// A Client connects to one Ninf computational server and issues
// Ninf_call-style remote library invocations:
//
//	c, _ := ninf.Dial("tcp", "j90.example.org:3000")
//	defer c.Close()
//	C := make([]float64, n*n)
//	rep, err := c.Call("dmmul", n, A, B, C)
//
// No stubs, IDL files or header inclusions exist on the client side:
// the first call to a routine fetches its compiled interface from the
// server (the two-stage RPC of §2.3) and the client marshals arguments
// by interpreting it. Out and inout array arguments are filled in
// place; out scalars are returned through pointers.
//
// CallAsync provides Ninf_call_async; Submit/Fetch expose the §5.1
// two-phase transfer protocol, which releases the connection while the
// server computes. For multi-server scheduling, transactions and fault
// tolerance, see the metaserver (internal/metaserver, cmd/ninfmeta).
package ninf

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
)

// Client is the handle on one Ninf computational server. It is safe
// for concurrent use: every verb runs the one exchange path of
// session.go, over one of the client's multiplexed sessions once one is
// negotiated — one session for calls that come one after another, up to
// GOMAXPROCS for calls that overlap — and otherwise on a connection
// checked out of a bounded idle pool fed by the dialer, so neither a
// burst of calls against a legacy server nor the verbs issued before a
// session is up dial per exchange.
type Client struct {
	pool *connPool

	// The interface cache. fetchMu serializes stage-one fetches, so
	// concurrent first calls wait for one fetch instead of each checking
	// out (and possibly dialing) a connection of its own; cacheMu only
	// guards the map, so calls of cached routines never wait behind a
	// fetch.
	fetchMu sync.Mutex
	cacheMu sync.Mutex
	cache   map[string]*idl.Info

	cb callbackRegistry

	// sess is the multiplexed session layer (protocol version 2);
	// see session.go. Zero value: multiplexing on, not yet probed.
	sess sessionState

	maxPayload int

	// bulkThr is the chunked-streaming threshold: 0 means
	// protocol.DefaultBulkThreshold, negative disables bulk streaming.
	bulkThr atomic.Int64

	retryMu sync.Mutex
	retry   RetryPolicy

	// budget is the cross-call retry token bucket; attempts counts
	// every wire attempt made under withRetry (retries included), the
	// observable the overload chaos test bounds.
	budget   retryBudget
	attempts atomic.Int64

	// Argument-cache state (feature level 4; see session.go). warm
	// holds the digests this client believes are resident in the
	// server's cache — optimistic knowledge that lets repeated calls
	// go by digest without asking; a CodeCacheMiss reply takes out the
	// digests it was about.
	noArgCache atomic.Bool // SetArgCache(false)
	retainRes  atomic.Bool // SetRetainResults(true)
	warmMu     sync.Mutex
	warm       map[protocol.Digest]struct{}

	// srvEpoch is the server incarnation epoch last observed in a hello
	// negotiation or Stats poll (0 until a journal-enabled server has
	// been seen). An observed change means the server restarted: its
	// argument cache came back empty, so warmth knowledge and data
	// handles minted against the old incarnation are void.
	srvEpoch atomic.Uint64
}

// maxWarmDigests bounds the client's warm-digest set; past it the set
// resets rather than growing without bound (the next calls re-query).
const maxWarmDigests = 4096

// SetArgCache toggles content-addressed argument references (feature
// level 4). On by default, it takes effect only against a server
// advertising an enabled argument cache; turning it off pins the
// client to plain level-3 framing regardless of what the server
// offers.
func (c *Client) SetArgCache(on bool) {
	c.noArgCache.Store(!on)
	if !on {
		c.forgetWarm(nil)
	}
}

// SetRetainResults asks cache-enabled servers to keep this client's
// large call results resident after the reply, so a later call on the
// same server can pass them back by digest without re-uploading —
// the data-handle chaining transactions use. A no-op below feature
// level 4.
func (c *Client) SetRetainResults(on bool) { c.retainRes.Store(on) }

// warmth reports which of digs the client knows the server to hold, and
// whether there is any it has no such knowledge of.
func (c *Client) warmth(digs []protocol.Digest) (warm []bool, unknown bool) {
	warm = make([]bool, len(digs))
	c.warmMu.Lock()
	for i, d := range digs {
		_, warm[i] = c.warm[d]
		unknown = unknown || !warm[i]
	}
	c.warmMu.Unlock()
	return warm, unknown
}

// markWarm records digests the server is now known to hold.
func (c *Client) markWarm(digs []protocol.Digest) {
	c.warmMu.Lock()
	if c.warm == nil || len(c.warm) > maxWarmDigests {
		c.warm = make(map[protocol.Digest]struct{}, len(digs))
	}
	for _, d := range digs {
		c.warm[d] = struct{}{}
	}
	c.warmMu.Unlock()
}

// markRetained records as warm the large results of a call that asked
// the server to retain them (send sets Retain only against a live
// cache), so the next call can pass one back by digest without asking —
// the transaction handle chain. Large is by the client's threshold, at
// or above the server's in stock configurations; a server that kept
// less answers CodeCacheMiss and the retry uploads.
func (c *Client) markRetained(info *idl.Info, args []any) {
	var digs []protocol.Digest
	thr := c.bulkThreshold()
	for i := range info.Params {
		if b, ok := protocol.ValueLEBytes(args[i]); ok && info.Params[i].Mode.Ships(true) && thr > 0 && len(b) >= thr {
			digs = append(digs, protocol.DigestBytesLE(b))
		}
	}
	c.markWarm(digs)
}

// forgetWarm drops what is believed of digs — those a CodeCacheMiss
// showed the server evicted behind our back — or, given nil, of every
// digest: the cache they were in is gone or out of use.
func (c *Client) forgetWarm(digs []protocol.Digest) {
	c.warmMu.Lock()
	if digs == nil {
		c.warm = nil
	}
	for _, d := range digs {
		delete(c.warm, d)
	}
	c.warmMu.Unlock()
}

// noteEpoch folds one observation of the server's incarnation epoch
// into the client. Journal-less servers report 0 and are never tracked.
// A newly observed epoch means the server restarted with an empty
// cache: all warm-digest knowledge is dropped, and data handles
// stamped with the old epoch start failing fast with ErrStaleHandle.
//
// The fold is monotonic: observations race (an in-flight Stats reply
// can decode after a reconnect hello already saw the restarted
// server's epoch), and letting a delayed older observation roll
// srvEpoch back would both un-stale dead handles and spuriously stale
// fresh ones. Server epochs only ever advance, so a smaller value here
// is always the stale message, never the newer server state.
func (c *Client) noteEpoch(e uint64) {
	if e == 0 {
		return
	}
	for {
		old := c.srvEpoch.Load()
		if e <= old {
			return // duplicate or delayed older observation
		}
		if c.srvEpoch.CompareAndSwap(old, e) {
			if old != 0 {
				c.forgetWarm(nil)
			}
			return
		}
	}
}

// ServerEpoch reports the server incarnation epoch last observed by
// this client: 0 until a hello negotiation or Stats poll against a
// journal-enabled server (see internal/server/journal). The epoch
// increases by at least one per server restart, so two unequal
// observations bracket a crash.
func (c *Client) ServerEpoch() uint64 { return c.srvEpoch.Load() }

// A DataHandle names a server-resident cached value by content digest
// — the persistent remote data handle of feature level 4. Handles are
// content-addressed: any call whose retained result (or uploaded
// argument) had these bytes yields the same handle.
type DataHandle struct {
	dig protocol.Digest
	// epoch is the server incarnation the handle was minted against
	// (Client.HandleFor); 0 means unbound — package-level handles carry
	// no incarnation and rely on the server-side cache-miss reply alone.
	epoch uint64
}

// HandleFor computes the data handle of an array value ([]float64,
// []float32 or []int64); ok is false for non-array values. The handle
// is computed locally — whether a given server holds the value is only
// known when the handle is used. A handle from this package-level
// function is not bound to a server incarnation; prefer
// Client.HandleFor, whose handles fail fast with ErrStaleHandle after
// the server restarts instead of surfacing a cache miss.
func HandleFor(v any) (DataHandle, bool) {
	d, ok := protocol.DigestValue(v)
	return DataHandle{dig: d}, ok
}

// HandleFor computes the data handle of an array value and stamps it
// with the server incarnation epoch the client has last observed. If
// the server restarts (its cache restarting empty), FetchData on the
// stamped handle returns ErrStaleHandle without a round trip, telling
// the caller to re-upload the value rather than retry the fetch.
// Against journal-less servers — no epoch on the wire — the stamp is 0
// and the handle behaves exactly like a package-level one.
func (c *Client) HandleFor(v any) (DataHandle, bool) {
	d, ok := protocol.DigestValue(v)
	return DataHandle{dig: d, epoch: c.srvEpoch.Load()}, ok
}

// ErrStaleHandle is returned by FetchData for a data handle minted
// against a previous incarnation of the server: the server restarted
// and its cache restarted empty, so the handle's value is gone and
// must be re-uploaded (e.g. by re-running the call that produced it).
// Terminal: retrying the fetch cannot help.
var ErrStaleHandle = errors.New("ninf: data handle from a previous server incarnation")

// FetchData retrieves a server-resident cached value by handle into
// dst (*[]float64, *[]float32 or *[]int64). It requires a feature
// level 4 session against a cache-enabled server; an evicted (or never
// cached) handle fails with a CodeCacheMiss remote error.
func (c *Client) FetchData(ctx context.Context, h DataHandle, dst any) error {
	sess, err := c.session(ctx, true)
	if err != nil {
		return err
	}
	if !c.cacheOn(sess) {
		return errors.New("ninf: server offers no argument cache")
	}
	// session() above refreshed the observed epoch if it (re)negotiated,
	// so an epoch-stamped handle that survived a server restart is
	// caught here before the exchange.
	if cur := c.srvEpoch.Load(); h.epoch != 0 && cur != 0 && h.epoch != cur {
		return fmt.Errorf("%w (minted at epoch %d, server at %d)", ErrStaleHandle, h.epoch, cur)
	}
	rt, fb, _, err := c.exchange(ctx, sess, request{t: protocol.MsgDataHandle, fb: protocol.EncodeDataHandleRequestBuf(h.dig)})
	if err != nil {
		return err
	}
	defer fb.Release()
	if rt != protocol.MsgDataHandleOK {
		return fmt.Errorf("ninf: unexpected reply %v to data-handle fetch", rt)
	}
	d, b, err := protocol.DecodeDataHandleReply(fb.Payload())
	if err != nil {
		return err
	}
	if d != h.dig {
		return fmt.Errorf("ninf: data-handle reply names %v, requested %v", d, h.dig)
	}
	return protocol.DecodeLEInto(b, dst)
}

var errClientClosed = errors.New("ninf: client closed")

// Dial connects to a Ninf server over the named network.
func Dial(network, addr string) (*Client, error) {
	dialer := func() (net.Conn, error) { return net.Dial(network, addr) }
	return NewClient(dialer)
}

// DialContext is Dial with the initial connection (and every later
// pool refill) bounded by ctx's deadline. Cancelling ctx after
// DialContext returns also aborts subsequent dials made on the
// client's behalf; it does not interrupt exchanges already in flight.
func DialContext(ctx context.Context, network, addr string) (*Client, error) {
	var d net.Dialer
	dialer := func() (net.Conn, error) { return d.DialContext(ctx, network, addr) }
	return NewClient(dialer)
}

// NewClient builds a client around a dialer, which supplies every
// connection the client uses. It dials once eagerly — so an unreachable
// server fails here, not at the first call — and that connection seeds
// the pool: the first exchange rides it, and so does the session
// negotiation. Tests and the network emulator pass dialers returning
// in-memory or traffic-shaped connections.
func NewClient(dial func() (net.Conn, error)) (*Client, error) {
	if dial == nil {
		return nil, errors.New("ninf: nil dialer")
	}
	c := &Client{
		pool:  newConnPool(dial, DefaultPoolSize),
		cache: make(map[string]*idl.Info),
		retry: DefaultRetryPolicy,
	}
	conn, err := c.pool.get()
	if err != nil {
		return nil, err
	}
	c.pool.put(conn)
	c.budget.configure(DefaultRetryBudget, time.Now())
	return c, nil
}

// SetRetryPolicy adjusts how the client retries transport faults
// (resets, dial failures, truncated frames); see RetryPolicy. Pass
// NoRetry to surface every fault to the caller.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retryMu.Lock()
	c.retry = p.withDefaults()
	if p.MaxAttempts == 1 { // NoRetry keeps its literal meaning
		c.retry.MaxAttempts = 1
	}
	c.retryMu.Unlock()
}

// Retry returns the client's current retry policy.
func (c *Client) Retry() RetryPolicy {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	return c.retry
}

// SetRetryBudget replaces the client's cross-call retry budget (and
// resets its balance to the new burst). Pass NoRetryBudget to remove
// the bound; see RetryBudget for the storm-damping rationale.
func (c *Client) SetRetryBudget(b RetryBudget) {
	c.budget.configure(b, time.Now())
}

// Attempts reports how many wire attempts the client has made under
// its retry loop since creation, retries included. The gap between
// Attempts and calls issued is the retry amplification the budget
// exists to bound.
func (c *Client) Attempts() int64 { return c.attempts.Load() }

// SetBulkThreshold adjusts the payload size at which requests to a
// bulk-capable server switch to chunked zero-copy streaming (default
// protocol.DefaultBulkThreshold, 256 KiB). Pass a negative value to
// disable bulk streaming and always send monolithic frames.
//
// Zero-copy caveat: a chunked request's bulk array arguments are
// written to the wire directly from the caller's slices. The client
// guarantees the slices are unreferenced once the call returns (on
// success, failure, or context end), but the caller must not mutate
// them from other goroutines while a Call/CallAsync/Submit using them
// is in flight.
func (c *Client) SetBulkThreshold(n int) {
	if n < 0 {
		c.bulkThr.Store(-1)
		return
	}
	c.bulkThr.Store(int64(n))
}

// bulkThreshold resolves the effective chunking threshold; 0 disables.
func (c *Client) bulkThreshold() int {
	switch n := c.bulkThr.Load(); {
	case n < 0:
		return 0
	case n == 0:
		return protocol.DefaultBulkThreshold
	default:
		return int(n)
	}
}

// SetPoolSize bounds the idle connections retained between lockstep
// exchanges (default DefaultPoolSize). It does not cap concurrency:
// when every pooled connection is busy, additional exchanges dial
// through the dialer and the surplus connections are closed on return.
// A multiplexed session's connection is checked out for the session's
// life and does not count against the bound; nor does this bound how
// many sessions the client holds (see session.go).
func (c *Client) SetPoolSize(n int) { c.pool.setMaxIdle(n) }

// Close releases the idle pool and every multiplexed session, and severs
// any in-flight exchange: a CallAsync or Submit blocked on a dead
// server returns a classified connection error (wrapping
// ErrClientClosed) rather than hanging.
func (c *Client) Close() error {
	c.pool.closeAll()
	c.retire(nil)
	return nil
}

// control runs one of the payload-less control verbs. They carry no
// context and no retry: a caller polling liveness wants the fault, not
// a masked one.
func (c *Client) control(t, want protocol.MsgType) (*protocol.Buffer, error) {
	fb, _, err := c.query(context.Background(), false, t, protocol.AcquireBuffer(0), want)
	return fb, err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	fb, err := c.control(protocol.MsgPing, protocol.MsgPong)
	fb.Release()
	return err
}

// List returns the routine names registered on the server.
func (c *Client) List() ([]string, error) {
	fb, err := c.control(protocol.MsgList, protocol.MsgListReply)
	if err != nil {
		return nil, err
	}
	defer fb.Release()
	reply, err := protocol.DecodeListReply(fb.Payload())
	if err != nil {
		return nil, err
	}
	return reply.Names, nil
}

// Stats polls the server's scheduling self-report.
func (c *Client) Stats() (protocol.Stats, error) {
	fb, err := c.control(protocol.MsgStats, protocol.MsgStatsOK)
	if err != nil {
		return protocol.Stats{}, err
	}
	defer fb.Release()
	s, err := protocol.DecodeStats(fb.Payload())
	if err == nil {
		c.noteEpoch(s.Epoch)
	}
	return s, err
}

// Interface returns the compiled IDL of a routine, fetching it from
// the server on first use (stage one of the two-stage RPC).
func (c *Client) Interface(name string) (*idl.Info, error) {
	return c.InterfaceContext(context.Background(), name)
}

// InterfaceContext is Interface with a caller-supplied context
// bounding the fetch; transport faults are retried under the client's
// retry policy like every other verb, and cancelling ctx severs a
// fetch blocked on a dead or black-holed connection.
func (c *Client) InterfaceContext(ctx context.Context, name string) (*idl.Info, error) {
	var info *idl.Info
	err := c.withRetry(ctx, "interface "+name, func() error {
		var aerr error
		info, aerr = c.attemptInterface(ctx, name)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// cachedInterface returns the cached interface of a routine, or nil.
func (c *Client) cachedInterface(name string) *idl.Info {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	return c.cache[name]
}

// attemptInterface is one try at resolving a routine's interface: the
// cache, else a stage-one fetch on whatever transport is at hand.
func (c *Client) attemptInterface(ctx context.Context, name string) (*idl.Info, error) {
	if info := c.cachedInterface(name); info != nil {
		return info, nil
	}
	c.fetchMu.Lock()
	defer c.fetchMu.Unlock()
	if info := c.cachedInterface(name); info != nil {
		return info, nil // fetched while this caller waited its turn
	}
	ireq := protocol.InterfaceRequest{Name: name}
	fb, _, err := c.query(ctx, false, protocol.MsgInterface, protocol.BufferFor(ireq.Encode()), protocol.MsgInterfaceOK)
	if err != nil {
		return nil, err
	}
	info, err := protocol.DecodeInterfaceReply(fb.Payload())
	fb.Release()
	if err != nil {
		return nil, err
	}
	c.cacheMu.Lock()
	c.cache[name] = info
	c.cacheMu.Unlock()
	return info, nil
}

// A Report describes one completed Ninf_call with the timestamps the
// paper instruments (§4.1) and the measured payload sizes.
type Report struct {
	Routine string
	// Submit is when the client issued the call; Received when the
	// reply finished arriving (client clock). Enqueue, Dequeue and
	// Complete are the server-side timestamps.
	Submit, Received           time.Time
	Enqueue, Dequeue, Complete time.Time
	// BytesOut/BytesIn are request/reply payload sizes.
	BytesOut, BytesIn int64
	// Retracted counts bytes of a speculative upload written and then
	// withdrawn because the server turned out to hold the array (see
	// send); not part of BytesOut, and 0 almost always.
	Retracted int64
}

// Total is the wall-clock duration of the whole Ninf_call.
func (r *Report) Total() time.Duration { return r.Received.Sub(r.Submit) }

// Response is T_enqueue − T_submit, the paper's response time.
func (r *Report) Response() time.Duration { return r.Enqueue.Sub(r.Submit) }

// Wait is T_dequeue − T_enqueue, the paper's queueing wait.
func (r *Report) Wait() time.Duration { return r.Dequeue.Sub(r.Enqueue) }

// ComputeTime is T_complete − T_dequeue, the executable's run time.
func (r *Report) ComputeTime() time.Duration { return r.Complete.Sub(r.Dequeue) }

// Throughput is the paper's Figure 5 metric: total payload bytes over
// the whole call duration (marshalling and computation included), in
// bytes/second.
func (r *Report) Throughput() float64 {
	d := r.Total().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.BytesOut+r.BytesIn) / d
}

// Call performs a blocking Ninf_call. Arguments are positional per the
// routine's IDL:
//
//   - in scalars: int, int64, float64, float32, string
//   - in/inout arrays: []int64, []float64, []float32 (mutated in place
//     for inout and out)
//   - out arrays: a correctly-sized slice to fill, or nil to discard
//   - out scalars: *int64, *float64, *float32, *string, or nil
func (c *Client) Call(name string, args ...any) (*Report, error) {
	return c.CallContext(context.Background(), name, args...)
}

// CallContext is Call bounded by ctx: the deadline covers the whole
// exchange (marshalling, transfer, server compute, reply), and
// cancelling ctx severs a call blocked on a dead or black-holed
// connection. Transport faults are retried per the client's
// RetryPolicy; each attempt re-marshals into a fresh pooled buffer and
// re-dials if needed, so a retry never reuses a poisoned connection or
// a released buffer.
func (c *Client) CallContext(ctx context.Context, name string, args ...any) (*Report, error) {
	var rep *Report
	err := c.withRetry(ctx, "call "+name, func() error {
		var aerr error
		rep, aerr = c.attemptCall(ctx, name, args)
		return aerr
	})
	return rep, err
}

// withRetry runs attempt under the client's retry policy: retryable
// transport faults and overload rejections are retried with capped,
// fully-jittered exponential backoff — or with the server's own
// retry-after hint when it sent one — until the policy's attempt
// budget, the client's cross-call retry budget, or ctx runs out.
func (c *Client) withRetry(ctx context.Context, op string, attempt func() error) error {
	pol := c.Retry()
	var lastErr error
	for try := 1; ; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (%v)", err, lastErr)
			}
			return err
		}
		c.attempts.Add(1)
		err := attempt()
		if err == nil {
			return nil
		}
		err = ctxErr(ctx, err)
		if !Retryable(err) {
			// Remote errors, argument errors and context ends pass
			// through untouched: a concurrent Close must not mask the
			// real failure as ErrClientClosed.
			return err
		}
		if c.pool.isClosed() {
			// A transport fault on a closed client is (almost always)
			// the close severing the exchange; classify it as such.
			return fmt.Errorf("%w (%v)", errClientClosed, err)
		}
		if try >= pol.MaxAttempts {
			return &RetryError{Op: op, Attempts: try, Err: err}
		}
		if !c.budget.take(time.Now()) {
			// The cross-call retry budget is dry: a failure storm is in
			// progress, and retrying would amplify the very load that
			// caused it. Degrade to first-try-only; RetryError unwraps
			// to the real failure so failover still classifies it.
			return &RetryError{Op: op, Attempts: try,
				Err: fmt.Errorf("retry budget exhausted: %w", err)}
		}
		lastErr = err
		if hint, ok := overloadHint(err); ok {
			// The server told us when its queue should have drained;
			// trust that over our blind exponential guess.
			if serr := sleepCtx(ctx, hint); serr != nil {
				return fmt.Errorf("%w (%v)", serr, err)
			}
		} else if berr := pol.backoff(ctx, try); berr != nil {
			return fmt.Errorf("%w (%v)", berr, err)
		}
	}
}

// attemptCall is one try at a call: resolve the interface, pick the
// transport, encode for it, exchange, decode into the caller's
// destinations. Over a session the call blocks only its own caller;
// against a lockstep peer it occupies one pooled connection for its
// duration, so concurrent calls use one connection each.
func (c *Client) attemptCall(ctx context.Context, name string, args []any) (*Report, error) {
	info, vals, err := c.prepVals(ctx, name, args)
	if err != nil {
		return nil, err
	}
	sess, err := c.session(ctx, true)
	if err != nil {
		return nil, err
	}
	creq := &protocol.CallRequest{Name: info.Name, Args: vals, Deadline: ctxDeadlineNanos(ctx)}
	rep := &Report{Routine: info.Name, Submit: time.Now()}
	rt, fb, bulk, err := c.send(ctx, sess, protocol.MsgCall, info, creq, 0, rep)
	if err != nil {
		return nil, err
	}
	if rt != protocol.MsgCallOK {
		fb.Release()
		return nil, fmt.Errorf("ninf: unexpected reply %v to call", rt)
	}
	if rep, err = finish(rep, info, vals, args, fb, bulk); err == nil && creq.Retain {
		c.markRetained(info, args)
	}
	return rep, err
}

// AsyncCall is a pending Ninf_call_async.
type AsyncCall struct {
	report *Report
	err    error
	done   chan struct{}
}

// Wait blocks until the call finishes, returning its report.
func (a *AsyncCall) Wait() (*Report, error) {
	<-a.done
	return a.report, a.err
}

// Done reports completion without blocking.
func (a *AsyncCall) Done() bool {
	select {
	case <-a.done:
		return true
	default:
		return false
	}
}

// CallAsync performs Ninf_call_async: the same exchange as Call, run
// on its own goroutine while the caller continues. Results land in the
// argument slices/pointers when Wait returns, not before.
func (c *Client) CallAsync(name string, args ...any) *AsyncCall {
	return c.CallAsyncContext(context.Background(), name, args...)
}

// CallAsyncContext is CallAsync bounded by ctx; see CallContext for
// the deadline and retry semantics.
func (c *Client) CallAsyncContext(ctx context.Context, name string, args ...any) *AsyncCall {
	a := &AsyncCall{done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.report, a.err = c.CallContext(ctx, name, args...)
	}()
	return a
}

// releaseGuarded settles a pooled connection after a guarded exchange.
// A disarmed guard pools or discards by connReusable. A guard that
// already fired means ctx ended mid-exchange and its conn.Close races
// (or raced) the exchange: the connection is never pooled — another
// caller must not be handed a socket about to be closed under it — and
// a failed exchange is reported as the context's end rather than the
// severed socket's I/O error. A completed exchange keeps its result;
// only the connection is forfeit.
func (c *Client) releaseGuarded(ctx context.Context, conn net.Conn, stop func() bool, err error) error {
	if !stop() {
		c.pool.discard(conn)
		if err != nil {
			return ctxErr(ctx, err)
		}
		return nil
	}
	if connReusable(err) {
		c.pool.put(conn)
	} else {
		c.pool.discard(conn)
	}
	return err
}

// connReusable reports whether a pooled connection is still in frame
// sync after an exchange that returned err: a nil error or a decoded
// remote error leaves the stream clean; anything else (dial, I/O,
// framing, decode trouble) means the connection must be discarded.
func connReusable(err error) bool {
	if err == nil {
		return true
	}
	var re *protocol.RemoteError
	return errors.As(err, &re)
}

// prepVals resolves the interface and validates/converts the
// arguments, before any transport is committed or anything is
// marshalled — the wire encoding (monolithic, chunked or by digest) is
// chosen later, once the peer's capabilities are known. The interface
// fetch runs as part of the attempt (under ctx, one try): prepVals's
// callers sit inside withRetry already, so a transport fault fetching
// the interface is retried by the enclosing loop, not a nested one.
func (c *Client) prepVals(ctx context.Context, name string, args []any) (*idl.Info, []idl.Value, error) {
	info, err := c.attemptInterface(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	vals, err := toValues(info, args)
	if err != nil {
		return nil, nil, err
	}
	return info, vals, nil
}

// ctxDeadlineNanos propagates the caller's context deadline onto the
// wire (0 = none): the server uses it to refuse work it cannot finish
// in time and to shed queued jobs whose caller has already given up.
func ctxDeadlineNanos(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		return dl.UnixNano()
	}
	return 0
}

// Job is a two-phase call handle (§5.1): arguments already shipped,
// results to be fetched later.
type Job struct {
	client *Client
	id     uint64
	info   *idl.Info
	args   []any
	vals   []idl.Value
	report *Report
	// name and key identify the submission itself (not the server-side
	// job): key is the idempotency key every attempt carried, kept so
	// Resubmit can re-enter the same submission after the server forgot
	// the job (ErrJobNotFound) without risking a second execution.
	name string
	key  uint64
	// done marks a result as delivered through this handle. A fetched
	// job is consumed at the API level — further fetches are a caller
	// bug (ErrJobDone) — even though the server lets the job linger
	// briefly so a reply lost in transit can be re-fetched by the
	// retry machinery underneath.
	done bool
}

// ID returns the server-assigned job identity.
func (j *Job) ID() uint64 { return j.id }

// Submit ships the arguments of a call and returns immediately with a
// job handle; the server computes while no connection is tied up. This
// is the two-phase protocol of §5.1, proposed to keep per-user
// performance under multi-client load.
func (c *Client) Submit(name string, args ...any) (*Job, error) {
	return c.SubmitContext(context.Background(), name, args...)
}

// SubmitContext is Submit bounded by ctx, with transport faults
// retried per the client's RetryPolicy. Every attempt of one
// submission carries the same client-generated idempotency key, and
// the server dedupes on it: a retry whose original request frame was
// delivered (but whose reply was lost) is answered with the already-
// admitted job's handle instead of being admitted again, so each
// submission executes at most once server-side.
func (c *Client) SubmitContext(ctx context.Context, name string, args ...any) (*Job, error) {
	key := submitKey()
	var job *Job
	err := c.withRetry(ctx, "submit "+name, func() error {
		var aerr error
		job, aerr = c.attemptSubmit(ctx, name, args, key)
		return aerr
	})
	return job, err
}

// submitKey draws a nonzero random idempotency key for one submission.
func submitKey() uint64 {
	for {
		if k := rand.Uint64(); k != 0 {
			return k
		}
	}
}

// attemptSubmit is one try at a submission; see attemptCall.
func (c *Client) attemptSubmit(ctx context.Context, name string, args []any, key uint64) (*Job, error) {
	info, vals, err := c.prepVals(ctx, name, args)
	if err != nil {
		return nil, err
	}
	sess, err := c.session(ctx, true)
	if err != nil {
		return nil, err
	}
	creq := &protocol.CallRequest{Name: name, Args: vals, Deadline: ctxDeadlineNanos(ctx)}
	rep := &Report{Routine: name, Submit: time.Now()}
	rt, fb, _, err := c.send(ctx, sess, protocol.MsgSubmit, info, creq, key, rep)
	if err != nil {
		return nil, err
	}
	defer fb.Release()
	if rt != protocol.MsgSubmitOK {
		return nil, fmt.Errorf("ninf: unexpected reply %v to submit", rt)
	}
	sr, err := protocol.DecodeSubmitReply(fb.Payload())
	if err != nil {
		return nil, err
	}
	return &Job{client: c, id: sr.JobID, info: info, args: args, vals: vals, report: rep, name: name, key: key}, nil
}

// ErrNotReady is returned by Fetch(false) while the job is running.
var ErrNotReady = errors.New("ninf: job not ready")

// ErrJobNotFound is returned by Fetch when the server does not know the
// job: it restarted without a journal (or the journal never saw the
// submission), the job was already fetched once, or its unfetched
// result aged out. Terminal for the fetch — retrying cannot help — but
// not for the submission: Resubmit re-enters it under the original
// idempotency key, so recovery stays exactly-once.
var ErrJobNotFound = errors.New("ninf: job not found on server")

// ErrJobDone is returned by Fetch on a handle whose result was already
// delivered: results are filled into the caller's arguments exactly
// once, so a second fetch has nowhere meaningful to go.
var ErrJobDone = errors.New("ninf: job result already fetched")

// Resubmit re-submits a job the server has forgotten (Fetch returned
// ErrJobNotFound) and rebinds the handle to the new server-side job.
// The submission reuses the original idempotency key, so a server that
// does still know the job — a race, or a journal replay finishing late
// — answers with the existing job instead of executing twice. After a
// successful Resubmit the job can be fetched again as usual.
func (j *Job) Resubmit(ctx context.Context) error {
	var nj *Job
	err := j.client.withRetry(ctx, "resubmit "+j.name, func() error {
		var aerr error
		nj, aerr = j.client.attemptSubmit(ctx, j.name, j.args, j.key)
		return aerr
	})
	if err != nil {
		return err
	}
	j.id, j.info, j.vals, j.report = nj.id, nj.info, nj.vals, nj.report
	j.done = false
	return nil
}

// Fetch collects the results of a submitted job, filling the argument
// slices/pointers passed to Submit. With wait true it blocks until the
// job completes; otherwise it returns ErrNotReady if still running.
// A job can be fetched once; a handle that already delivered its
// result answers ErrJobDone.
func (j *Job) Fetch(wait bool) (*Report, error) {
	return j.FetchContext(context.Background(), wait)
}

// fetchPollCap bounds the poll interval FetchContext backs off to: a
// just-submitted job is checked quickly, a long-running one a few
// times a second, so waiting burns neither CPU nor a server
// connection.
const fetchPollCap = 250 * time.Millisecond

// fetchPollHintCap bounds how far a server overload hint can stretch
// the poll schedule, so one pathological hint cannot park a fetch for
// the full 5-second hint ceiling.
const fetchPollHintCap = 2 * time.Second

// nextFetchDelay folds one poll outcome into the backoff schedule:
// sleep is the wait before the next poll and next the schedule carried
// forward. Without a hint the schedule doubles up to fetchPollCap. A
// server overload hint observed during the poll becomes the schedule's
// new baseline (capped at fetchPollHintCap): the poll after the hint
// expires continues backing off from the hint instead of dropping back
// to the millisecond floor and hammering the still-draining server.
func nextFetchDelay(pollDelay, hint time.Duration) (sleep, next time.Duration) {
	if hint > fetchPollHintCap {
		hint = fetchPollHintCap
	}
	if hint > pollDelay {
		pollDelay = hint
	}
	next = pollDelay
	if next < fetchPollCap {
		next *= 2
		if next > fetchPollCap {
			next = fetchPollCap
		}
	}
	return pollDelay, next
}

// FetchContext is Fetch bounded by ctx. Waiting is client-driven:
// rather than parking a connection in the server's fetch queue (where
// a dying server would strand it), the job is polled with exponential
// backoff capped at fetchPollCap, each poll one short exchange.
// Overload hints honored during a poll carry into the schedule (see
// nextFetchDelay). Cancelling ctx abandons the wait; transport faults
// during a poll are retried per the client's RetryPolicy.
func (j *Job) FetchContext(ctx context.Context, wait bool) (*Report, error) {
	if j.done {
		return nil, ErrJobDone
	}
	pollDelay := time.Millisecond
	for {
		rep, hint, err := j.fetchOnce(ctx)
		if err == nil {
			j.done = true
			return rep, nil
		}
		if !errors.Is(err, ErrNotReady) || !wait {
			return nil, err
		}
		var sleep time.Duration
		sleep, pollDelay = nextFetchDelay(pollDelay, hint)
		if serr := sleepCtx(ctx, sleep); serr != nil {
			return nil, serr
		}
	}
}

// fetchOnce performs one non-blocking fetch exchange, with transport
// faults retried under the client's policy. The second return is the
// largest overload hint the server sent during the poll's attempts, so
// the enclosing poll loop can respect it.
func (j *Job) fetchOnce(ctx context.Context) (*Report, time.Duration, error) {
	var rep *Report
	var hint time.Duration
	err := j.client.withRetry(ctx, fmt.Sprintf("fetch job %d", j.id), func() error {
		var aerr error
		rep, aerr = j.attemptFetch(ctx)
		if h, ok := overloadHint(aerr); ok && h > hint {
			hint = h
		}
		if errors.Is(aerr, ErrNotReady) {
			// Not a fault: the job is just still running. Surface it
			// past the retry loop untouched.
			return nil
		}
		return aerr
	})
	if err == nil && rep == nil {
		return nil, hint, ErrNotReady
	}
	return rep, hint, err
}

// attemptFetch is one non-blocking fetch exchange. Large stored results
// arrive chunked from a bulk-capable session.
func (j *Job) attemptFetch(ctx context.Context) (*Report, error) {
	fr := protocol.FetchRequest{JobID: j.id, Wait: false}
	fb, bulk, err := j.client.query(ctx, true, protocol.MsgFetch, fr.EncodeBuf(), protocol.MsgFetchOK)
	if err != nil {
		return nil, classifyFetchErr(err)
	}
	return finish(j.report, j.info, j.vals, j.args, fb, bulk)
}

// classifyFetchErr maps the fetch protocol's remote error codes onto
// the client's sentinel errors: CodeNotReady (poll again) and
// CodeUnknownJob (the server has no such job — restarted without its
// journal, already fetched, or expired; see ErrJobNotFound). Both are
// deliberate answers, not faults, so neither is retryable.
func classifyFetchErr(err error) error {
	var re *protocol.RemoteError
	if errors.As(err, &re) {
		switch re.Code {
		case protocol.CodeNotReady:
			return ErrNotReady
		case protocol.CodeUnknownJob:
			return fmt.Errorf("%w (%s)", ErrJobNotFound, re.Detail)
		}
	}
	return err
}

// toValues converts user arguments to the protocol's positional value
// vector, validating count and basic types.
func toValues(info *idl.Info, args []any) ([]idl.Value, error) {
	if len(args) != len(info.Params) {
		return nil, fmt.Errorf("ninf: %s takes %d arguments, got %d", info.Name, len(info.Params), len(args))
	}
	vals := make([]idl.Value, len(args))
	for i := range args {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			// Out-only: the argument is a destination, not a value.
			continue
		}
		switch v := args[i].(type) {
		case int:
			vals[i] = int64(v)
		case int64, float64, float32, string, []int64, []float64, []float32:
			vals[i] = v
		case nil:
			return nil, fmt.Errorf("ninf: %s argument %q (in-mode) is nil", info.Name, p.Name)
		default:
			return nil, fmt.Errorf("ninf: %s argument %q has unsupported type %T", info.Name, p.Name, args[i])
		}
	}
	return vals, nil
}

// storeResults writes decoded scalar results through the caller's
// pointers. Array results need no storing: the reply decoder already
// converted them into the caller's slices.
func storeResults(info *idl.Info, args []any, out []idl.Value) error {
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(true) || !p.IsScalar() {
			continue
		}
		if args[i] == nil {
			continue // caller discards this result
		}
		if err := storeOne(args[i], out[i]); err != nil {
			return fmt.Errorf("ninf: %s result %q: %w", info.Name, p.Name, err)
		}
	}
	return nil
}

func storeOne(dst any, v idl.Value) error {
	switch d := dst.(type) {
	case *float64:
		s, ok := v.(float64)
		if !ok {
			return fmt.Errorf("cannot store %T into *float64", v)
		}
		*d = s
	case *float32:
		s, ok := v.(float32)
		if !ok {
			return fmt.Errorf("cannot store %T into *float32", v)
		}
		*d = s
	case *int64:
		s, ok := v.(int64)
		if !ok {
			return fmt.Errorf("cannot store %T into *int64", v)
		}
		*d = s
	case *string:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("cannot store %T into *string", v)
		}
		*d = s
	default:
		return fmt.Errorf("unsupported result destination %T", dst)
	}
	return nil
}
