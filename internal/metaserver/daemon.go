package metaserver

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/placement"
	"ninf/internal/protocol"
)

// daemonMaxPayload bounds any single frame the daemon accepts or a
// replica exchanges: large enough for a full gossip batch, small
// enough that a hostile or corrupted length word cannot balloon
// memory.
const daemonMaxPayload = 1 << 20

// Serve runs the metaserver daemon protocol on a listener: clients
// send MsgSchedule to obtain a placement, MsgObserve to report call
// outcomes, and MsgPing for liveness; fellow replicas send MsgGossip.
// Serve returns when the listener closes.
func (m *Metaserver) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			m.ServeConn(conn)
		}()
	}
}

// connReadTimeout bounds how long the daemon waits for the next frame
// on an accepted connection before severing it: the guard against
// half-dead clients parking read loops forever. A var so tests can
// shrink it.
var connReadTimeout = 2 * time.Minute

// ServeConn handles one client connection. Every frame is read under
// connReadTimeout — a peer that connects and then stalls (or dies
// without a FIN) is severed instead of parking this goroutine forever —
// and bounded by daemonMaxPayload. handle answers it; a protocol
// violation (malformed payload, unknown frame type, oversized frame) is
// answered with one MsgError and the connection closes, and only an
// application-level refusal (no eligible server) keeps it open.
func (m *Metaserver) ServeConn(conn net.Conn) {
	for {
		conn.SetDeadline(time.Now().Add(connReadTimeout))
		typ, fb, err := protocol.ReadFrameBuf(conn, daemonMaxPayload)
		var r reply
		if err != nil {
			if !errors.Is(err, protocol.ErrOversized) {
				return
			}
			r = errReply(protocol.CodeBadArguments, err.Error(), true)
		} else {
			r = m.handle(typ, fb)
		}
		err = protocol.WriteFrameBuf(conn, r.t, r.fb)
		r.fb.Release()
		if err != nil || r.fatal {
			return
		}
	}
}

// reply is the daemon's answer to one frame; fatal closes the
// connection once it is written.
type reply struct {
	t     protocol.MsgType
	fb    *protocol.Buffer
	fatal bool
}

// errReply builds a MsgError reply.
func errReply(code uint32, detail string, fatal bool) reply {
	return reply{protocol.MsgError, protocol.BufferFor(protocol.EncodeErrorReply(code, detail, 0)), fatal}
}

// handle answers one request frame, consuming fb. It never sees the
// connection: ServeConn writes what it returns.
func (m *Metaserver) handle(typ protocol.MsgType, fb *protocol.Buffer) reply {
	p := fb.Payload()
	defer fb.Release()
	switch typ {
	case protocol.MsgPing:
		return reply{t: protocol.MsgPong, fb: protocol.AcquireBuffer(0)}
	case protocol.MsgSchedule:
		req, err := protocol.DecodeScheduleRequest(p)
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error(), true)
		}
		pl, err := m.Place(ninf.SchedRequest{
			Routine:  req.Routine,
			InBytes:  req.InBytes,
			OutBytes: req.OutBytes,
			Ops:      req.Ops,
			Exclude:  req.Exclude,
			Affinity: req.Affinity,
		})
		if err != nil {
			// No server will take the call (ErrNoServer): a refusal,
			// which RemoteScheduler.Place reads back as ErrNoServer.
			return errReply(protocol.CodeUnknownRoutine, err.Error(), false)
		}
		out := protocol.ScheduleReply{Name: pl.Name, Addr: m.addrOf(pl.Name)}
		return reply{t: protocol.MsgScheduleOK, fb: protocol.BufferFor(out.Encode())}
	case protocol.MsgObserve:
		req, err := protocol.DecodeObserveRequest(p)
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error(), true)
		}
		m.ObserveRemote(req)
		return reply{t: protocol.MsgObserveOK, fb: protocol.AcquireBuffer(0)}
	case protocol.MsgGossip:
		req, err := protocol.DecodeGossipRequest(p)
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error(), true)
		}
		out := m.handleGossip(req)
		r := reply{t: protocol.MsgGossipOK, fb: protocol.AcquireBuffer(out.SizeHint())}
		out.EncodeInto(r.fb.Encoder())
		return r
	}
	return errReply(protocol.CodeInternal, fmt.Sprintf("unexpected frame %v", typ), true)
}

func (m *Metaserver) addrOf(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.servers[name]; ok {
		return e.Addr
	}
	return ""
}

// Control-path timeouts: a black-holed replica, peer or server
// (partition or silent drop rather than RST) must fail as fast as a
// crashed one, not after the OS TCP timeout. Vars, not consts, so
// tests can shrink them.
var (
	// metaDialTimeout bounds connection establishment to a replica, a
	// peer or a computational server.
	metaDialTimeout = 5 * time.Second
	// metaExchangeTimeout bounds one request/reply round trip
	// (including the liveness ping, when one is owed), one monitor poll
	// and one gossip exchange.
	metaExchangeTimeout = 5 * time.Second
)

// metaConnIdle is how long a pooled control connection may sit unused
// before it is preemptively redialed: the daemon severs idle
// connections (connReadTimeout), and sending a non-idempotent
// request down a likely-dead conn forces the replay question below.
const metaConnIdle = 30 * time.Second

// metaReplica is the client-side view of one metaserver address:
// its persistent control connection and its failure accounting.
type metaReplica struct {
	addr string
	dial func() (net.Conn, error)

	// Guarded by RemoteScheduler.mu:
	conn       net.Conn
	fails      int       // consecutive transport failures
	avoidUntil time.Time // backoff window after a failure
	lastOK     time.Time
}

// cacheEntry is one server remembered from a successful placement,
// usable for degradedCacheTTL if every metaserver becomes unreachable.
type cacheEntry struct {
	addr string
	at   time.Time
}

// RemoteScheduler is the client side of the daemon protocol: a
// ninf.Scheduler that forwards placement decisions to a metaserver
// process over the network.
//
// Given several metaserver addresses it is highly available: requests
// go to the current replica, and any transport error fails over to the
// next, with a capped-jitter backoff window ordering unhealthy
// replicas last. A replica being retried after failures must first
// answer a MsgPing health check before it gets real traffic again.
// Outcome reports are stamped with a per-scheduler origin and sequence
// number, so a report replayed to a second replica after failover is
// counted once by the replica set, not twice.
//
// When every metaserver is unreachable the scheduler degrades rather
// than fails: placements fall back to a TTL'd cache of servers
// recently handed out, picked by placement.RoundRobin and honoring the
// request's exclusions and affinity, with Placement.Degraded set so
// callers can see they ran on possibly-stale routing.
type RemoteScheduler struct {
	// Origin stamps outcome reports for idempotent replay; defaulted
	// to a process-unique ID.
	Origin string

	mu       sync.Mutex
	metas    []*metaReplica
	cur      int // index of the currently preferred replica
	seq      uint64
	cache    map[string]cacheEntry
	rrDeg    int // round-robin cursor for degraded placements
	degraded int // degraded placements handed out
	init     bool
	now      func() time.Time // every clock read but the socket deadlines
}

// NewRemoteScheduler connects to one or more metaserver daemons over
// TCP. With several addresses the scheduler fails over between them;
// the first is preferred initially.
func NewRemoteScheduler(addrs ...string) *RemoteScheduler {
	r := &RemoteScheduler{}
	for _, a := range addrs {
		r.AddMeta(a, nil)
	}
	return r
}

// AddMeta registers an additional metaserver replica reachable
// through a custom dialer (nil means TCP to addr). Replicas are tried
// in registration order; the first registered is preferred initially.
func (r *RemoteScheduler) AddMeta(addr string, dial func() (net.Conn, error)) {
	if dial == nil {
		dial = tcpDialer(addr)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metas = append(r.metas, &metaReplica{addr: addr, dial: dial})
}

var clientOriginCounter uint64

// degradedCacheTTL bounds how long a cached placement may serve
// degraded mode.
const degradedCacheTTL = 30 * time.Second

// ensureLocked finishes construction lazily so zero-value and
// struct-literal schedulers keep working. Callers hold r.mu.
func (r *RemoteScheduler) ensureLocked() {
	if r.init {
		return
	}
	r.init = true
	if r.now == nil {
		r.now = time.Now
	}
	if r.Origin == "" {
		r.Origin = fmt.Sprintf("client-%x-%d", r.now().UnixNano(), atomic.AddUint64(&clientOriginCounter, 1))
	}
	r.cache = make(map[string]cacheEntry)
}

// metaBackoff sizes the avoidance window after the fails-th
// consecutive transport failure: capped jitter, 50ms doubling to a 2s
// ceiling, drawn uniformly from [d/2, d). Short enough that a revived
// replica is retried promptly, long enough that a dead one is not
// hammered on every placement.
func metaBackoff(fails int) time.Duration {
	// Shift only inside the doubling range: past it (or on a bogus
	// count) the window is pinned at the ceiling, and an unclamped
	// shift would overflow Duration once fails grows into the dozens.
	d := 2 * time.Second
	if fails >= 1 && fails <= 6 {
		d = 50 * time.Millisecond << uint(fails-1)
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)))
}

// errNoMetaserver reports a scheduler constructed with no way to reach
// any metaserver.
var errNoMetaserver = errors.New("metaserver: no metaserver configured")

// roundTrip sends one request to the replica set: the preferred
// replica first, then the others, replicas inside their backoff
// window last (they are still tried, so a full outage probes everyone
// before giving up). A MsgError reply is the daemon answering — it
// comes back as RemoteError and does not fail over.
func (r *RemoteScheduler) roundTrip(typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	if len(r.metas) == 0 {
		return 0, nil, errNoMetaserver
	}
	n := len(r.metas)
	now := r.now()
	order := make([]*metaReplica, 0, n)
	var avoided []*metaReplica
	for i := 0; i < n; i++ {
		mr := r.metas[(r.cur+i)%n]
		if now.Before(mr.avoidUntil) {
			avoided = append(avoided, mr)
			continue
		}
		order = append(order, mr)
	}
	order = append(order, avoided...)

	var lastErr error
	for _, mr := range order {
		rt, rp, err := r.exchangeLocked(mr, typ, payload)
		if !protocol.Classify(err).Answered() {
			lastErr = err
			mr.fails++
			mr.avoidUntil = r.now().Add(metaBackoff(mr.fails))
			continue
		}
		mr.fails = 0
		mr.avoidUntil = time.Time{}
		mr.lastOK = r.now()
		for i, x := range r.metas {
			if x == mr {
				r.cur = i
			}
		}
		return rt, rp, err
	}
	return 0, nil, fmt.Errorf("metaserver: all %d metaservers unreachable: %w", n, lastErr)
}

// idempotentMsg reports whether a frame is safe to execute twice
// server-side: pings are stateless and outcome reports carry
// origin+seq dedup. MsgSchedule is not — each execution bumps the
// placed server's optimistic queue depth, balanced by exactly one
// later Observe decrement.
func idempotentMsg(t protocol.MsgType) bool {
	return t == protocol.MsgObserve || t == protocol.MsgPing
}

// exchangeLocked runs one request/reply on a replica. A failure on an
// existing pooled connection (the daemon's idle timeout may have
// severed it) is retried once on a fresh dial before the replica is
// declared down — but only when the replay cannot execute the request
// twice server-side: either the pooled write itself failed
// (protocol.ErrWrite: a partial frame is unparseable, so nothing ran)
// or the frame is idempotent. A non-idempotent frame whose write was
// accepted before the connection died may already have executed;
// replaying it would double-run it, so the attempt fails and ordinary
// failover takes over. Idle connections are preemptively redialed so
// the ambiguous case stays rare. Callers hold r.mu.
func (r *RemoteScheduler) exchangeLocked(mr *metaReplica, typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte, error) {
	if mr.conn != nil && r.now().Sub(mr.lastOK) > metaConnIdle {
		r.dropLocked(mr)
	}
	if mr.conn != nil {
		rt, rp, err := r.onceLocked(mr, typ, payload, false)
		if protocol.Classify(err).Answered() || (!errors.Is(err, protocol.ErrWrite) && !idempotentMsg(typ)) {
			return rt, rp, err
		}
	}
	return r.onceLocked(mr, typ, payload, mr.fails > 0)
}

// onceLocked performs a single attempt, dialing if needed, and drops
// the connection unless the daemon answered. ping makes a replica that
// previously failed prove liveness with a MsgPing round trip before the
// real request. Callers hold r.mu.
func (r *RemoteScheduler) onceLocked(mr *metaReplica, typ protocol.MsgType, payload []byte, ping bool) (protocol.MsgType, []byte, error) {
	fresh := mr.conn == nil
	if fresh {
		conn, err := mr.dial()
		if err != nil {
			return 0, nil, err
		}
		mr.conn = conn
	}
	// The whole exchange runs under a deadline: a replica that accepts
	// and then black-holes must fail over as fast as one that crashed.
	mr.conn.SetDeadline(time.Now().Add(metaExchangeTimeout))
	if fresh && ping {
		pt, fb, err := protocol.Roundtrip(mr.conn, protocol.MsgPing, protocol.AcquireBuffer(0), daemonMaxPayload)
		fb.Release()
		if protocol.Classify(err).Answered() && pt != protocol.MsgPong {
			// Refused or answered otherwise: the replica is still down.
			err = fmt.Errorf("metaserver: unexpected reply %v to ping", pt)
		}
		if err != nil {
			r.dropLocked(mr)
			return 0, nil, err
		}
	}
	rt, fb, err := protocol.Roundtrip(mr.conn, typ, protocol.BufferFor(payload), daemonMaxPayload)
	if !protocol.Classify(err).Answered() {
		r.dropLocked(mr)
	}
	return rt, protocol.CopyOut(fb), err
}

// dropLocked discards a replica's pooled connection. Callers hold
// r.mu.
func (r *RemoteScheduler) dropLocked(mr *metaReplica) {
	if mr.conn != nil {
		mr.conn.Close()
		mr.conn = nil
	}
}

// tcpDialer is the plain-TCP dialer, bounded by metaDialTimeout, for
// every address the package dials itself: replicas, peers, servers
// learned through gossip and the servers a placement names.
func tcpDialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, metaDialTimeout) }
}

// Place implements ninf.Scheduler. A transport-level failure of every
// replica falls back to the degraded placement cache; an answer from a
// reachable daemon is returned as-is, except that its "no eligible
// server" is ErrNoServer, as from Metaserver.Place.
func (r *RemoteScheduler) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	wire := protocol.ScheduleRequest{
		Routine:  req.Routine,
		InBytes:  req.InBytes,
		OutBytes: req.OutBytes,
		Ops:      req.Ops,
		Exclude:  req.Exclude,
		Affinity: req.Affinity,
	}
	typ, p, err := r.roundTrip(protocol.MsgSchedule, wire.Encode())
	if err != nil {
		var re *protocol.RemoteError
		if errors.As(err, &re) && re.Code == protocol.CodeUnknownRoutine {
			return ninf.Placement{}, ErrNoServer
		}
		if protocol.Classify(err).Answered() {
			return ninf.Placement{}, err
		}
		return r.placeDegraded(req, err)
	}
	if typ != protocol.MsgScheduleOK {
		return ninf.Placement{}, fmt.Errorf("metaserver: unexpected reply %v to schedule", typ)
	}
	reply, err := protocol.DecodeScheduleReply(p)
	if err != nil {
		return ninf.Placement{}, err
	}
	r.mu.Lock()
	r.ensureLocked()
	r.cache[reply.Name] = cacheEntry{addr: reply.Addr, at: r.now()}
	r.mu.Unlock()
	return ninf.Placement{Name: reply.Name, Dial: tcpDialer(reply.Addr)}, nil
}

// placeDegraded serves a placement from the cache of servers the
// metaservers recently handed out: fresh entries minus the request's
// exclusions, in name order, picked by placement.RoundRobin — which
// knows no load here, so the turn walks them — unless the affinity
// server is among them. The per-call exclusion loop in the transaction
// layer supplies the failure handling a live metaserver would — a
// cached server that fails is excluded on the retry and the rotation
// moves on.
func (r *RemoteScheduler) placeDegraded(req ninf.SchedRequest, cause error) (ninf.Placement, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	now := r.now()
	var cands []placement.Server
	for name, ce := range r.cache {
		if now.Sub(ce.at) > degradedCacheTTL {
			delete(r.cache, name)
		} else if !slices.Contains(req.Exclude, name) {
			cands = append(cands, placement.Server{Name: name})
		}
	}
	if len(cands) == 0 {
		return ninf.Placement{}, fmt.Errorf("metaserver: degraded and no usable cached server: %w", cause)
	}
	slices.SortFunc(cands, func(a, b placement.Server) int { return strings.Compare(a.Name, b.Name) })
	r.rrDeg++
	name := cands[placement.Pick(cands, req, placement.RoundRobin, r.rrDeg)].Name
	r.degraded++
	return ninf.Placement{Name: name, Dial: tcpDialer(r.cache[name].addr), Degraded: true}, nil
}

// Observe implements ninf.Scheduler. The outcome is reported as
// observation describes it, stamped with this scheduler's origin and
// next sequence number — the identity that keeps a replayed report
// from being double-counted. Observations are advisory; errors are
// deliberately dropped (roundTrip has already retried every replica).
func (r *RemoteScheduler) Observe(serverName string, bytes int64, elapsed time.Duration, callErr error) {
	wire := observation(serverName, bytes, elapsed, callErr)
	r.mu.Lock()
	r.ensureLocked()
	r.seq++
	wire.Origin, wire.Seq = r.Origin, r.seq
	r.mu.Unlock()
	r.roundTrip(protocol.MsgObserve, wire.Encode())
}

// MetaStatus is the client-side health view of one metaserver replica.
type MetaStatus struct {
	// Addr is the replica's configured address.
	Addr string
	// Current marks the replica requests currently prefer.
	Current bool
	// Fails is the consecutive transport-failure streak.
	Fails int
	// AvoidedUntil is the end of the failure backoff window (zero when
	// healthy).
	AvoidedUntil time.Time
	// LastOK is when the replica last answered (zero if never).
	LastOK time.Time
}

// SchedulerStatus is RemoteScheduler introspection: replica health and
// degraded-mode accounting.
type SchedulerStatus struct {
	Metas []MetaStatus
	// CachedServers is the current placement-cache population
	// (including possibly-stale entries not yet pruned).
	CachedServers int
	// DegradedPlacements counts placements served from the cache while
	// every metaserver was unreachable.
	DegradedPlacements int
}

// Status reports replica health and degraded-mode accounting.
func (r *RemoteScheduler) Status() SchedulerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked()
	st := SchedulerStatus{CachedServers: len(r.cache), DegradedPlacements: r.degraded}
	for i, mr := range r.metas {
		st.Metas = append(st.Metas, MetaStatus{
			Addr:         mr.addr,
			Current:      i == r.cur,
			Fails:        mr.fails,
			AvoidedUntil: mr.avoidUntil,
			LastOK:       mr.lastOK,
		})
	}
	return st
}

// Close releases all metaserver connections.
func (r *RemoteScheduler) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, mr := range r.metas {
		if mr.conn != nil {
			if err := mr.conn.Close(); err != nil && first == nil {
				first = err
			}
			mr.conn = nil
		}
	}
	return first
}

var _ ninf.Scheduler = (*RemoteScheduler)(nil)
