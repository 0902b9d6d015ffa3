// Package metaserver implements the Ninf metaserver (§2.4): it
// monitors multiple computational servers, performs scheduling and
// load balancing of client Ninf_calls, and supports the parallel,
// fault-tolerant execution of transaction blocks.
//
// The metaserver tracks two kinds of information per server: the
// server's own self-report (load average, CPU utilization, queue
// depth, polled via the Stats RPC) and the achievable client↔server
// bandwidth observed from completed calls. The paper's central WAN
// finding (§4.2.3, §6) is that load-only placement — what NetSolve's
// agents did — fails for communication-intensive work in WAN settings
// because point-to-point bandwidth, not server load, dominates;
// placement.BandwidthAware encodes the proposed fix, and
// placement.LoadOnly is kept as the baseline for the ablation
// benchmark. The rule itself lives in internal/placement; this package
// keeps the state it reads and decides who is eligible.
package metaserver

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"ninf"
	"ninf/internal/placement"
	"ninf/internal/protocol"
)

// A Snapshot is the operator's view of one server. Alive, Breaker,
// Fails, Overloaded and ObsCount are derived when the snapshot is
// taken.
type Snapshot struct {
	Name string
	Addr string
	// Alive mirrors the circuit breaker: false exactly when the
	// breaker is open (the server receives no placements).
	Alive bool
	// Breaker is the server's circuit-breaker state; see BreakerState.
	Breaker BreakerState
	// Fails is the current consecutive-failure streak feeding the
	// breaker.
	Fails int
	// PowerMflops is the configured peak compute rate estimate.
	PowerMflops float64
	// Bandwidth is the observed achievable bandwidth in bytes/second
	// (EWMA over completed calls), or the configured initial value
	// before any observation.
	Bandwidth float64
	// Stats is the last successful poll.
	Stats protocol.Stats
	// Overloaded reports that the server recently rejected a call for
	// load (CodeOverloaded). Unlike a breaker trip this is
	// back-pressure, not suspected death: the server stays Alive and
	// schedulable, but placement is biased away until the penalty
	// window — sized from the server's own retry-after hint — passes.
	Overloaded bool
	// TraceCompute maps routine name → mean observed compute time on
	// this server, from the §5.1 execution trace fetched during
	// polling; see placement.Server.
	TraceCompute map[string]time.Duration
	// LastSeen is when the server last answered a poll.
	LastSeen time.Time
	// ObsCount is how many distinct call-outcome reports have been
	// applied for this server's name, counting each client-stamped
	// (origin, seq) report once regardless of how many times failover
	// or gossip redelivered it, and whether or not the server was
	// registered here when it arrived. Replicas that have converged
	// agree on it.
	ObsCount int
}

// Config parameterizes a Metaserver.
type Config struct {
	// Policy costs servers for placement; nil means
	// placement.BandwidthAware.
	Policy placement.Policy
	// FailThreshold opens a server's circuit breaker after this many
	// consecutive failed calls or polls (default 3).
	FailThreshold int
	// BreakerCooldown is how long an open breaker blocks placements
	// before admitting a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Origin identifies this replica in gossip records and must be
	// unique across a replica set (default "meta" — fine standalone,
	// wrong for replication).
	Origin string
}

// Metaserver monitors servers and places calls. It implements
// ninf.Scheduler, so transactions can run over it directly.
type Metaserver struct {
	cfg Config
	now func() time.Time // every clock read but the socket deadlines

	mu      sync.Mutex
	servers map[string]*entry
	order   []string
	rr      int                // Pick's turn: rotates equal-cost servers
	cands   []placement.Server // Place's scratch, reused under mu
	events  []BreakerEvent

	// Replication state; see replica.go.
	origin string
	seq    uint64                // last locally issued gossip seq
	log    map[string]*originLog // per-origin applied records
	peers  []*peer
	tombs  map[string]int64 // server name → deregistration unix nanos, kept for good
	obs    map[string]int   // server name → outcome reports applied, kept for good
}

// entry is one server's state. Its Snapshot holds the stored fields;
// the derived ones (Alive, Breaker, Fails, Overloaded, ObsCount) stay
// zero here and are computed from brk, overloadUntil and the
// metaserver's obs when read.
type entry struct {
	Snapshot
	dial     func() (net.Conn, error)
	brk      breaker
	observed bool
	// overloadUntil ends the placement-penalty window opened by an
	// overloaded reply.
	overloadUntil time.Time
	// registeredAt is the winning registration record's timestamp,
	// compared against deregistration tombstones so membership
	// conflicts resolve identically on every replica.
	registeredAt int64
}

// snapshot is the entry's view at now, with obs reports applied.
func (e *entry) snapshot(now time.Time, obs int) *Snapshot {
	s := e.Snapshot
	s.ObsCount = obs
	s.Alive = e.brk.state != BreakerOpen
	s.Breaker = e.brk.state
	s.Fails = e.brk.fails
	s.Overloaded = now.Before(e.overloadUntil)
	return &s
}

// server is the entry as the placement policy sees it at now.
func (e *entry) server(now time.Time) placement.Server {
	return placement.Server{
		Name:         e.Name,
		PowerMflops:  e.PowerMflops,
		Bandwidth:    e.Bandwidth,
		LoadAverage:  e.Stats.LoadAverage,
		Queued:       e.Stats.Queued,
		Running:      e.Stats.Running,
		Overloaded:   now.Before(e.overloadUntil),
		TraceCompute: e.TraceCompute,
	}
}

// New creates a metaserver.
func New(cfg Config) *Metaserver { return newMetaserver(cfg, time.Now) }

// newMetaserver is New reading the clock now.
func newMetaserver(cfg Config, now func() time.Time) *Metaserver {
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.Origin == "" {
		cfg.Origin = "meta"
	}
	if cfg.Policy == nil {
		cfg.Policy = placement.BandwidthAware
	}
	return &Metaserver{
		cfg:     cfg,
		now:     now,
		servers: make(map[string]*entry),
		origin:  cfg.Origin,
		log:     make(map[string]*originLog),
		tombs:   make(map[string]int64),
		obs:     make(map[string]int),
	}
}

// AddServer registers a computational server under a unique name.
// powerMflops is the administrator's estimate of its compute rate,
// used by cost-based policies. addr is advertised to remote clients;
// dial is how this process reaches the server.
func (m *Metaserver) AddServer(name, addr string, powerMflops float64, dial func() (net.Conn, error)) error {
	if name == "" || dial == nil {
		return errors.New("metaserver: server needs a name and a dialer")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.servers[name]; dup {
		return fmt.Errorf("metaserver: server %q already registered", name)
	}
	// Stamp the registration for tombstone conflict resolution; an
	// operator re-adding a server they just removed must beat the local
	// tombstone even on a coarse clock.
	at := m.now().UnixNano()
	if t, ok := m.tombs[name]; ok && at <= t {
		at = t + 1
	}
	e := &entry{dial: dial, registeredAt: at}
	e.Name = name
	e.Addr = addr
	e.PowerMflops = powerMflops
	e.Bandwidth = initialBandwidth
	m.servers[name] = e
	m.order = append(m.order, name)
	// Registrations always enter the gossip log (a handful of records)
	// so peers added later still learn every server.
	m.recordLocked(protocol.GossipRecord{
		Kind:        protocol.GossipRegister,
		Name:        name,
		Addr:        addr,
		Power:       powerMflops,
		AtUnixNanos: at,
	})
	return nil
}

// RemoveServer drops a server from scheduling. The removal leaves a
// timestamped tombstone so a register record for the same server still
// circulating through gossip cannot resurrect it on any replica.
func (m *Metaserver) RemoveServer(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.servers[name]
	if !ok {
		return
	}
	at := m.now().UnixNano()
	if at <= e.registeredAt {
		at = e.registeredAt + 1
	}
	if at > m.tombs[name] {
		m.tombs[name] = at
	}
	m.removeLocked(name)
	m.recordLocked(protocol.GossipRecord{Kind: protocol.GossipDeregister, Name: name, AtUnixNanos: at})
}

// removeLocked drops a server from the placement view. Callers hold
// m.mu.
func (m *Metaserver) removeLocked(name string) {
	delete(m.servers, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// Servers returns snapshots in registration order.
func (m *Metaserver) Servers() []*Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]*Snapshot, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, m.servers[n].snapshot(now, m.obs[n]))
	}
	return out
}

// PollOnce probes every server's Stats RPC once, updating liveness and
// self-reports. It returns the number of servers that answered.
func (m *Metaserver) PollOnce() int {
	m.mu.Lock()
	type probe struct {
		name string
		dial func() (net.Conn, error)
	}
	probes := make([]probe, 0, len(m.order))
	for _, n := range m.order {
		probes = append(probes, probe{n, m.servers[n].dial})
	}
	m.mu.Unlock()

	ok := 0
	var wg sync.WaitGroup
	results := make([]*protocol.Stats, len(probes))
	traces := make([]map[string]time.Duration, len(probes))
	for i, p := range probes {
		wg.Add(1)
		go func(i int, p probe) {
			defer wg.Done()
			st, tr, err := pollStats(p.dial)
			if err == nil {
				results[i] = &st
				traces[i] = tr
			}
		}(i, p)
	}
	wg.Wait()

	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range probes {
		e, present := m.servers[p.name]
		if !present {
			continue
		}
		if results[i] != nil {
			prevEpoch := e.Stats.Epoch
			e.Stats = *results[i]
			e.TraceCompute = traces[i]
			e.LastSeen = now
			m.noteStatsEpochLocked(e, prevEpoch)
			// A successful poll is a liveness probe: it closes the
			// breaker even when it was opened by call failures, so
			// polling and call feedback revive a server
			// symmetrically.
			e.brk.onSuccess(m.transition(e, now))
			if len(m.peers) > 0 {
				// Share the first-hand poll with peers; they apply it
				// freshest-wins, so a replica partitioned from a server
				// still sees its liveness through us.
				m.recordLocked(protocol.GossipRecord{
					Kind:        protocol.GossipStats,
					Name:        e.Name,
					AtUnixNanos: now.UnixNano(),
					Stats:       results[i].Encode(),
				})
			}
			ok++
		} else {
			e.brk.onFailure(now, m.cfg.FailThreshold, m.transition(e, now))
		}
	}
	return ok
}

// transition returns the event recorder the breaker calls on a state
// change decided at now. Callers hold m.mu.
func (m *Metaserver) transition(e *entry, now time.Time) func(from, to BreakerState) {
	return func(from, to BreakerState) {
		m.events = append(m.events, BreakerEvent{Server: e.Name, From: from, To: to, At: now})
		const maxEvents = 1024
		if len(m.events) > maxEvents {
			m.events = append(m.events[:0], m.events[len(m.events)-maxEvents:]...)
		}
	}
}

// noteStatsEpochLocked detects a server restart between two applied
// Stats self-reports — the incarnation epoch advanced (see
// internal/server/journal) — and resets the evidence this replica
// accumulated against the previous incarnation: the overload penalty
// window (the queue that caused it died with the old process), the
// bandwidth observation flag (the next completed call replaces the
// estimate instead of blending with the dead process's figure), and
// the consecutive-failure streak (those failures indicted a process
// that no longer exists; this very report proves the new one answers).
// Journal-less servers report epoch 0 and are never treated as
// restarted. Callers hold m.mu, have already stored the new Stats, and
// pass the epoch seen before the assignment.
func (m *Metaserver) noteStatsEpochLocked(e *entry, prevEpoch uint64) {
	if prevEpoch == 0 || e.Stats.Epoch == 0 || e.Stats.Epoch == prevEpoch {
		return
	}
	e.overloadUntil = time.Time{}
	e.observed = false
	e.brk.fails = 0
	e.brk.probing = false
}

// BreakerEvents returns the recorded circuit-breaker transitions in
// order (bounded history; oldest dropped first).
func (m *Metaserver) BreakerEvents() []BreakerEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]BreakerEvent(nil), m.events...)
}

// pollStats asks one server for its Stats and execution trace, both on
// one connection. The whole exchange is bounded by metaExchangeTimeout:
// PollOnce waits for every probe, so a server that accepts and then
// stalls would otherwise freeze liveness and Stats for all of them. Each
// reply is bounded by daemonMaxPayload, so a corrupt or hostile length
// word fails the poll at once instead of sizing a buffer.
func pollStats(dial func() (net.Conn, error)) (protocol.Stats, map[string]time.Duration, error) {
	conn, err := dial()
	if err != nil {
		return protocol.Stats{}, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(metaExchangeTimeout))
	typ, fb, err := protocol.Roundtrip(conn, protocol.MsgStats, protocol.AcquireBuffer(0), daemonMaxPayload)
	if err == nil && typ != protocol.MsgStatsOK {
		fb.Release()
		err = fmt.Errorf("metaserver: unexpected reply %v to stats", typ)
	}
	if err != nil {
		return protocol.Stats{}, nil, err
	}
	st, err := protocol.DecodeStats(fb.Payload())
	fb.Release()
	if err != nil {
		return protocol.Stats{}, nil, err
	}
	// Fetch the §5.1 execution trace on the same connection; servers
	// without history return an empty list. It is best-effort: the
	// stats stand without it.
	typ, fb, err = protocol.Roundtrip(conn, protocol.MsgTrace, protocol.AcquireBuffer(0), daemonMaxPayload)
	if err != nil {
		return st, nil, nil
	}
	ts, err := protocol.DecodeTraces(fb.Payload())
	fb.Release()
	if err != nil || typ != protocol.MsgTraceOK {
		return st, nil, nil
	}
	trace := make(map[string]time.Duration, len(ts))
	for _, rt := range ts {
		trace[rt.Name] = rt.MeanCompute
	}
	return st, trace, nil
}

// StartMonitor polls all servers roughly every interval until the
// returned stop function is called. The schedule is full-jitter
// (uniform in [interval/2, 3·interval/2)) rather than a fixed ticker:
// replicas of a metaserver all poll the same servers, and synchronized
// tickers would land every replica's probe burst on the fleet in the
// same instant.
func (m *Metaserver) StartMonitor(interval time.Duration) (stop func()) {
	return startJitteredLoop(interval, func() { m.PollOnce() })
}

// jitterInterval draws one full-jitter delay: uniform in [d/2, 3d/2).
func jitterInterval(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// startJitteredLoop runs fn on a full-jitter schedule around interval
// until the returned stop function is called.
func startJitteredLoop(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTimer(jitterInterval(interval))
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
				t.Reset(jitterInterval(interval))
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ErrNoServer is returned by Place when no registered, alive,
// non-excluded server exists.
var ErrNoServer = errors.New("metaserver: no eligible server")

// Place implements ninf.Scheduler: it offers placement.Pick the
// servers a call may use — not excluded, breaker not open, not
// draining — and reserves the chosen one. Servers whose circuit
// breaker is open are not offered, so placements fail over to live
// servers; an open breaker past its cooldown admits exactly one
// half-open probe placement.
func (m *Metaserver) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.cands = m.cands[:0]
	for _, n := range m.order {
		e := m.servers[n]
		// Draining is a graceful shutdown in progress: the server
		// answers polls but refuses new work, so its breaker is left
		// alone and the call placed elsewhere until it is gone.
		if slices.Contains(req.Exclude, n) || !e.brk.eligible(now, m.cfg.BreakerCooldown, m.transition(e, now)) || e.Stats.Draining {
			continue
		}
		m.cands = append(m.cands, e.server(now))
	}
	if len(m.cands) == 0 {
		return ninf.Placement{}, ErrNoServer
	}
	chosen := m.servers[m.cands[placement.Pick(m.cands, req, m.cfg.Policy, m.rr+1)].Name]
	if chosen.Name != req.Affinity {
		m.rr++ // the turn moves when the policy chose, not the affinity hint
	}
	chosen.brk.markProbe()
	// Placements optimistically count toward load so a burst of
	// placements spreads even before stats refresh; the call's Observe
	// takes it back.
	chosen.Stats.Queued++
	return ninf.Placement{Name: chosen.Name, Dial: chosen.dial}, nil
}

// Observe implements ninf.Scheduler: a call's outcome updates the
// bandwidth estimate and failure accounting. It is applied exactly as
// a RemoteScheduler's report of the same outcome would be.
func (m *Metaserver) Observe(serverName string, bytes int64, elapsed time.Duration, callErr error) {
	m.ObserveRemote(observation(serverName, bytes, elapsed, callErr))
}

// observation turns one call's outcome into the report every scheduler
// applies, by the error's class (protocol.Classify): a success, a
// failure, or — for a stale or refused answer — neither, since the
// server answered and so proved itself alive. An overload rejection is
// flagged with its retry-after hint, because the server answered,
// deliberately: it must not advance the circuit breaker toward
// BreakerOpen — a busy-but-healthy server ejected as dead is the §4
// multi-client saturation regime misread as a crash — but open a
// placement-penalty window (applyOverloadLocked) that biases every
// policy away from it.
func observation(serverName string, bytes int64, elapsed time.Duration, callErr error) protocol.ObserveRequest {
	class := protocol.Classify(callErr)
	o := protocol.ObserveRequest{Name: serverName, Bytes: bytes, Nanos: int64(elapsed), Failed: class.Failure()}
	if class == protocol.ClassOverloaded {
		// The call did fail; Overloaded tells the scheduler how to count it.
		o.Failed, o.Overloaded = true, true
		o.RetryAfterMillis = protocol.RetryAfterMillis(callErr)
	}
	return o
}

// ObserveRemote applies an outcome report: one a client sent the
// daemon, or the embedded scheduler's own (Observe). Reports stamped
// with an origin and sequence number are idempotent: a replay — the
// same report resent to this replica after a failover, or relayed back
// through gossip — is recognized by (origin, seq) and dropped, so one
// call outcome never advances a breaker or the bandwidth EWMA twice.
// An unstamped report is first-hand: it applies directly and, when
// replicating, enters the gossip log under this replica's own origin.
func (m *Metaserver) ObserveRemote(req protocol.ObserveRequest) {
	rec := protocol.GossipRecord{
		Kind:             protocol.GossipObserve,
		Name:             req.Name,
		Bytes:            req.Bytes,
		Nanos:            req.Nanos,
		Failed:           req.Failed,
		Overloaded:       req.Overloaded,
		RetryAfterMillis: req.RetryAfterMillis,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.Origin == "" {
		if len(m.peers) > 0 {
			m.recordLocked(rec)
		}
		m.applyRecordLocked(rec, m.now())
		return
	}
	rec.Origin, rec.Seq = req.Origin, req.Seq
	l := m.logLocked(rec.Origin)
	if l.has(rec.Seq) {
		return // duplicate delivery of an already-counted outcome
	}
	l.add(rec)
	m.applyRecordLocked(rec, m.now())
}

// A server's bandwidth estimate starts at initialBandwidth (bytes/s)
// and its first observation replaces it; later ones blend in as an
// EWMA with weight bandwidthDecay.
const (
	initialBandwidth = 1e6
	bandwidthDecay   = 0.3
)

// applyObserveLocked is the effect of one non-overload call outcome on
// a server's accounting. Callers hold m.mu.
func (m *Metaserver) applyObserveLocked(e *entry, bytes int64, elapsed time.Duration, failed bool, now time.Time) {
	if e.Stats.Queued > 0 {
		e.Stats.Queued--
	}
	if failed {
		e.brk.onFailure(now, m.cfg.FailThreshold, m.transition(e, now))
		return
	}
	e.brk.onSuccess(m.transition(e, now))
	if bytes > 0 && elapsed > 0 {
		obs := float64(bytes) / elapsed.Seconds()
		if !e.observed {
			e.Bandwidth = obs
			e.observed = true
		} else {
			e.Bandwidth = bandwidthDecay*obs + (1-bandwidthDecay)*e.Bandwidth
		}
	}
}

// An overloaded reply biases placement away from its server for the
// server's retry-after hint, capped at maxOverloadPenalty, or for
// overloadPenalty when it carried none.
const (
	overloadPenalty    = time.Second
	maxOverloadPenalty = 30 * time.Second
)

// applyOverloadLocked is the effect of one overload rejection: a
// placement-penalty window, never breaker advancement. Callers hold
// m.mu.
func (m *Metaserver) applyOverloadLocked(e *entry, retryAfterMillis uint32, now time.Time) {
	if e.Stats.Queued > 0 {
		e.Stats.Queued--
	}
	cool := overloadPenalty
	if retryAfterMillis > 0 {
		cool = min(time.Duration(retryAfterMillis)*time.Millisecond, maxOverloadPenalty)
	}
	e.overloadUntil = now.Add(cool)
	// Liveness, not failure: reset the consecutive-failure streak.
	e.brk.onSuccess(m.transition(e, now))
}

var _ ninf.Scheduler = (*Metaserver)(nil)

// SortSnapshotsByName orders snapshots for stable test output.
func SortSnapshotsByName(s []*Snapshot) {
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
}
