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
// because point-to-point bandwidth, not server load, dominates; the
// BandwidthAware policy encodes the proposed fix, and LoadOnly is kept
// as the baseline for the ablation benchmark.
package metaserver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// A Snapshot is the scheduler-visible view of one server.
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
	// polling. Cost-based policies use it to predict computation for
	// routines whose IDL declares no Complexity clause.
	TraceCompute map[string]time.Duration
	// LastSeen is when the server last answered a poll.
	LastSeen time.Time
	// ObsCount is how many distinct call-outcome reports have been
	// applied for this server, counting each client-stamped
	// (origin, seq) report once regardless of how many times failover
	// or gossip redelivered it. Replicas that have converged agree on
	// it.
	ObsCount int
}

// A Policy picks a server for one request. Only alive servers are
// offered. It returns an index into snaps, or -1 if none is
// acceptable.
type Policy interface {
	Pick(snaps []*Snapshot, req ninf.SchedRequest) int
	Name() string
}

// Config parameterizes a Metaserver.
type Config struct {
	// Policy picks servers; nil means BandwidthAware.
	Policy Policy
	// InitialBandwidth seeds the bandwidth estimate of servers with
	// no observations yet (default 1 MB/s).
	InitialBandwidth float64
	// BandwidthDecay is the EWMA weight of a new observation
	// (default 0.3).
	BandwidthDecay float64
	// FailThreshold opens a server's circuit breaker after this many
	// consecutive failed calls or polls (default 3).
	FailThreshold int
	// BreakerCooldown is how long an open breaker blocks placements
	// before admitting a half-open probe (default 1s).
	BreakerCooldown time.Duration
	// OverloadPenalty is how long an overloaded reply biases placement
	// away from the server when it carried no retry-after hint
	// (default 1s). A hint overrides it, capped at 30s.
	OverloadPenalty time.Duration
	// Origin identifies this replica in gossip records and must be
	// unique across a replica set (default "meta" — fine standalone,
	// wrong for replication).
	Origin string
	// DialServer reaches a computational server learned through gossip
	// by its advertised address; nil means plain TCP.
	DialServer func(addr string) (net.Conn, error)
	// GossipInterval is the default anti-entropy period for StartGossip
	// (default 500ms).
	GossipInterval time.Duration
	// ConnReadTimeout bounds how long the daemon waits for the next
	// frame on an accepted connection before severing it (default 2m).
	// It is the guard against half-dead clients parking read loops
	// forever.
	ConnReadTimeout time.Duration
}

// Metaserver monitors servers and places calls. It implements
// ninf.Scheduler, so transactions can run over it directly.
type Metaserver struct {
	cfg    Config
	policy Policy

	mu      sync.Mutex
	servers map[string]*entry
	order   []string
	rr      int // round-robin cursor for tie-breaking
	events  []BreakerEvent

	// Replication state; see replica.go.
	origin string
	seq    uint64                // last locally issued gossip seq
	log    map[string]*originLog // per-origin applied records
	peers  []*peer
	tombs  map[string]int64 // server name → deregistration unix nanos
}

type entry struct {
	Snapshot
	dial     func() (net.Conn, error)
	brk      breaker
	observed bool
	// overloadUntil ends the placement-penalty window opened by an
	// overloaded reply; Snapshot.Overloaded is derived from it.
	overloadUntil time.Time
	// registeredAt is the winning registration record's timestamp,
	// compared against deregistration tombstones so membership
	// conflicts resolve identically on every replica.
	registeredAt int64
}

// refresh re-derives the snapshot's time-dependent fields.
func (e *entry) refresh(now time.Time) {
	e.Overloaded = now.Before(e.overloadUntil)
}

// New creates a metaserver.
func New(cfg Config) *Metaserver {
	if cfg.InitialBandwidth <= 0 {
		cfg.InitialBandwidth = 1e6
	}
	if cfg.BandwidthDecay <= 0 || cfg.BandwidthDecay > 1 {
		cfg.BandwidthDecay = 0.3
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.OverloadPenalty <= 0 {
		cfg.OverloadPenalty = time.Second
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 500 * time.Millisecond
	}
	if cfg.ConnReadTimeout <= 0 {
		cfg.ConnReadTimeout = 2 * time.Minute
	}
	if cfg.Origin == "" {
		cfg.Origin = "meta"
	}
	p := cfg.Policy
	if p == nil {
		p = BandwidthAware{}
	}
	return &Metaserver{
		cfg:     cfg,
		policy:  p,
		servers: make(map[string]*entry),
		origin:  cfg.Origin,
		log:     make(map[string]*originLog),
		tombs:   make(map[string]int64),
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
	at := time.Now().UnixNano()
	if t, ok := m.tombs[name]; ok && at <= t {
		at = t + 1
	}
	e := &entry{dial: dial, registeredAt: at}
	e.Name = name
	e.Addr = addr
	e.Alive = true
	e.PowerMflops = powerMflops
	e.Bandwidth = m.cfg.InitialBandwidth
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
	at := time.Now().UnixNano()
	if at <= e.registeredAt {
		at = e.registeredAt + 1
	}
	if at > m.tombs[name] {
		m.tombs[name] = at
	}
	m.pruneTombsLocked(time.Now())
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
	now := time.Now()
	out := make([]*Snapshot, 0, len(m.order))
	for _, n := range m.order {
		e := m.servers[n]
		e.refresh(now)
		s := e.Snapshot
		out = append(out, &s)
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

	now := time.Now()
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
			e.brk.onSuccess(m.transition(e))
			m.syncEntry(e)
			e.refresh(now)
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
			e.brk.onFailure(now, m.cfg.FailThreshold, m.transition(e))
			m.syncEntry(e)
			e.refresh(now)
		}
	}
	return ok
}

// transition returns the event recorder the breaker calls on a state
// change. Callers hold m.mu.
func (m *Metaserver) transition(e *entry) func(from, to BreakerState) {
	return func(from, to BreakerState) {
		m.events = append(m.events, BreakerEvent{Server: e.Name, From: from, To: to, At: time.Now()})
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

// syncEntry refreshes the snapshot's breaker-derived fields. Callers
// hold m.mu.
func (m *Metaserver) syncEntry(e *entry) {
	e.Breaker = e.brk.state
	e.Fails = e.brk.fails
	e.Alive = e.brk.state != BreakerOpen
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
// stalls would otherwise freeze liveness and Stats for all of them.
func pollStats(dial func() (net.Conn, error)) (protocol.Stats, map[string]time.Duration, error) {
	conn, err := dial()
	if err != nil {
		return protocol.Stats{}, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(metaExchangeTimeout))
	if err := protocol.WriteFrame(conn, protocol.MsgStats, nil); err != nil {
		return protocol.Stats{}, nil, err
	}
	typ, p, err := protocol.ReadFrame(conn, 0)
	if err != nil {
		return protocol.Stats{}, nil, err
	}
	if typ != protocol.MsgStatsOK {
		return protocol.Stats{}, nil, fmt.Errorf("metaserver: unexpected reply %v to stats", typ)
	}
	st, err := protocol.DecodeStats(p)
	if err != nil {
		return protocol.Stats{}, nil, err
	}
	// Fetch the §5.1 execution trace on the same connection; servers
	// without history return an empty list.
	if err := protocol.WriteFrame(conn, protocol.MsgTrace, nil); err != nil {
		return st, nil, nil // stats succeeded; trace is best-effort
	}
	typ, p, err = protocol.ReadFrame(conn, 0)
	if err != nil || typ != protocol.MsgTraceOK {
		return st, nil, nil
	}
	ts, err := server.DecodeTraces(p)
	if err != nil {
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

// Place implements ninf.Scheduler. Servers whose circuit breaker is
// open are not offered to the policy, so placements fail over to live
// servers; an open breaker past its cooldown admits exactly one
// half-open probe placement.
func (m *Metaserver) Place(req ninf.SchedRequest) (ninf.Placement, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	excluded := make(map[string]bool, len(req.Exclude))
	for _, x := range req.Exclude {
		excluded[x] = true
	}
	now := time.Now()
	var snaps []*Snapshot
	var entries []*entry
	for _, n := range m.order {
		e := m.servers[n]
		if excluded[n] {
			continue
		}
		ok := e.brk.eligible(now, m.cfg.BreakerCooldown, m.transition(e))
		m.syncEntry(e)
		e.refresh(now)
		if !ok {
			continue
		}
		if e.Stats.Draining {
			// Graceful shutdown in progress: the server answers polls
			// but refuses new work. Leave the breaker alone (it is
			// alive) and place elsewhere until it is gone.
			continue
		}
		s := e.Snapshot
		snaps = append(snaps, &s)
		entries = append(entries, e)
	}
	if len(snaps) == 0 {
		return ninf.Placement{}, ErrNoServer
	}
	// A cache-affinity hint short-circuits the policy when the hinted
	// server is eligible: the caller knows its argument bytes (or a
	// chained upstream result) are resident there, and re-shipping them
	// over the WAN dwarfs any load imbalance a single placement causes.
	// An ineligible or unknown hint falls through to normal placement.
	if req.Affinity != "" {
		for i, s := range snaps {
			if s.Name == req.Affinity {
				chosen := entries[i]
				chosen.brk.markProbe()
				chosen.Stats.Queued++
				return ninf.Placement{Name: chosen.Name, Dial: chosen.dial}, nil
			}
		}
	}
	// Rotate candidates so equal-cost servers spread round-robin.
	m.rr++
	off := m.rr % len(snaps)
	rot := make([]*Snapshot, len(snaps))
	rotE := make([]*entry, len(entries))
	for i := range snaps {
		rot[i] = snaps[(i+off)%len(snaps)]
		rotE[i] = entries[(i+off)%len(entries)]
	}
	idx := m.policy.Pick(rot, req)
	if idx < 0 || idx >= len(rot) {
		return ninf.Placement{}, ErrNoServer
	}
	chosen := rotE[idx]
	chosen.brk.markProbe()
	// Placements optimistically count toward load so a burst of
	// placements spreads even before stats refresh.
	chosen.Stats.Queued++
	return ninf.Placement{Name: chosen.Name, Dial: chosen.dial}, nil
}

// Observe implements ninf.Scheduler: feedback from completed calls
// updates the bandwidth estimate and failure accounting.
func (m *Metaserver) Observe(serverName string, bytes int64, elapsed time.Duration, failed bool) {
	m.observeLocal(protocol.GossipRecord{
		Kind:   protocol.GossipObserve,
		Name:   serverName,
		Bytes:  bytes,
		Nanos:  int64(elapsed),
		Failed: failed,
	})
}

// observeLocal applies a first-hand observation (embedded scheduler or
// a legacy client without origin stamping) and, when replicating,
// enters it into the gossip log under this replica's own origin.
func (m *Metaserver) observeLocal(rec protocol.GossipRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.peers) > 0 {
		m.recordLocked(rec)
	}
	m.applyRecordLocked(rec)
}

// ObserveRemote applies a client's outcome report received by the
// daemon. Reports stamped with an origin and sequence number are
// idempotent: a replay — the same report resent to this replica after
// a failover, or relayed back through gossip — is recognized by
// (origin, seq) and dropped, so one call outcome never advances a
// breaker or the bandwidth EWMA twice. Unstamped reports come from
// legacy clients and apply directly.
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
	if req.Origin == "" {
		m.observeLocal(rec)
		return
	}
	rec.Origin, rec.Seq = req.Origin, req.Seq
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.logLocked(rec.Origin)
	if l.has(rec.Seq) {
		return // duplicate delivery of an already-counted outcome
	}
	l.add(rec)
	m.applyRecordLocked(rec)
}

// applyObserveLocked is the effect of one non-overload call outcome on
// a server's accounting. Callers hold m.mu.
func (m *Metaserver) applyObserveLocked(e *entry, bytes int64, elapsed time.Duration, failed bool) {
	e.ObsCount++
	if e.Stats.Queued > 0 {
		e.Stats.Queued--
	}
	if failed {
		e.brk.onFailure(time.Now(), m.cfg.FailThreshold, m.transition(e))
		m.syncEntry(e)
		return
	}
	e.brk.onSuccess(m.transition(e))
	m.syncEntry(e)
	if bytes > 0 && elapsed > 0 {
		obs := float64(bytes) / elapsed.Seconds()
		if !e.observed {
			e.Bandwidth = obs
			e.observed = true
		} else {
			a := m.cfg.BandwidthDecay
			e.Bandwidth = a*obs + (1-a)*e.Bandwidth
		}
	}
}

// applyOverloadLocked is the effect of one overload rejection: a
// placement-penalty window, never breaker advancement. Callers hold
// m.mu.
func (m *Metaserver) applyOverloadLocked(e *entry, retryAfterMillis uint32) {
	e.ObsCount++
	if e.Stats.Queued > 0 {
		e.Stats.Queued--
	}
	cool := m.cfg.OverloadPenalty
	if retryAfterMillis > 0 {
		cool = time.Duration(retryAfterMillis) * time.Millisecond
		if cool > 30*time.Second {
			cool = 30 * time.Second
		}
	}
	now := time.Now()
	e.overloadUntil = now.Add(cool)
	// Liveness, not failure: reset the consecutive-failure streak.
	e.brk.onSuccess(m.transition(e))
	m.syncEntry(e)
	e.refresh(now)
}

// ObserveErr is Observe with the failure's error retained, so overload
// rejections can be told apart from genuine failures. An overloaded
// reply (CodeOverloaded RemoteError) proves the server is alive — it
// answered, deliberately — so it must NOT advance the circuit breaker
// toward BreakerOpen; a busy-but-healthy server ejected as dead is
// exactly the §4 multi-client saturation regime misread as a crash.
// Instead the reply opens a placement-penalty window (the server's own
// retry-after hint when present, Config.OverloadPenalty otherwise)
// that biases every policy away from the loaded server. A nil callErr
// is a success; anything else follows Observe's failure accounting.
func (m *Metaserver) ObserveErr(serverName string, bytes int64, elapsed time.Duration, callErr error) {
	var re *protocol.RemoteError
	if callErr != nil && errors.As(callErr, &re) && re.Code == protocol.CodeOverloaded {
		m.observeLocal(protocol.GossipRecord{
			Kind:             protocol.GossipObserve,
			Name:             serverName,
			Bytes:            bytes,
			Nanos:            int64(elapsed),
			Overloaded:       true,
			RetryAfterMillis: re.RetryAfterMillis,
		})
		return
	}
	m.Observe(serverName, bytes, elapsed, callErr != nil)
}

var _ ninf.Scheduler = (*Metaserver)(nil)

// LoadOnly is the NetSolve-style baseline policy: pick the alive
// server with the smallest load average, ignoring communication
// entirely (§6).
type LoadOnly struct{}

// Pick implements Policy.
func (LoadOnly) Pick(snaps []*Snapshot, _ ninf.SchedRequest) int {
	best := -1
	for i, s := range snaps {
		if best == -1 || load(s) < load(snaps[best]) {
			best = i
		}
	}
	return best
}

func load(s *Snapshot) float64 {
	// Running jobs occupy the machine and queued placements not yet
	// reflected in the polled load average count too, so bursts
	// spread and fresh load is visible before the EWMA catches up.
	return s.Stats.LoadAverage + float64(s.Stats.Queued) + float64(s.Stats.Running) + overloadBias(s)
}

// overloadLoadBias is the synthetic load an overload-penalized server
// carries during its penalty window: heavy enough that any idle peer
// wins placement, light enough that a fleet that is overloaded
// everywhere still schedules somewhere.
const overloadLoadBias = 8.0

func overloadBias(s *Snapshot) float64 {
	if s.Overloaded {
		return overloadLoadBias
	}
	return 0
}

// Name implements Policy.
func (LoadOnly) Name() string { return "load-only" }

// BandwidthAware estimates the wall-clock of the call on each server —
// communication at the observed bandwidth plus computation at the
// configured power degraded by current load — and picks the minimum.
// This is the placement rule §5.1/§6 call for: communication-intensive
// tasks go where bandwidth is, compute-intensive tasks where cycles
// are.
type BandwidthAware struct{}

// Pick implements Policy.
func (BandwidthAware) Pick(snaps []*Snapshot, req ninf.SchedRequest) int {
	best := -1
	bestCost := math.Inf(1)
	for i, s := range snaps {
		c := costOn(s, req)
		if c < bestCost {
			bestCost = c
			best = i
		}
	}
	return best
}

func costOn(s *Snapshot, req ninf.SchedRequest) float64 {
	cost := 0.0
	if s.Overloaded {
		// The penalty must bias even pure-communication costs, which
		// load(s) does not touch: one synthetic second dwarfs any LAN
		// transfer this reproduction measures.
		cost += 1.0
	}
	if bw := s.Bandwidth; bw > 0 {
		cost += float64(req.InBytes+req.OutBytes) / bw
	}
	switch {
	case req.Ops > 0 && s.PowerMflops > 0:
		// Load inflates compute time: a loaded server shares its
		// processors among load+1 ways.
		cost += float64(req.Ops) / (s.PowerMflops * 1e6) * (1 + load(s))
	case req.Ops == 0 && s.TraceCompute != nil:
		// No IDL complexity: predict from this server's execution
		// trace (§5.1).
		if d, ok := s.TraceCompute[req.Routine]; ok {
			cost += d.Seconds() * (1 + load(s))
		}
	}
	return cost
}

// Name implements Policy.
func (BandwidthAware) Name() string { return "bandwidth-aware" }

// RoundRobin spreads calls evenly across alive servers, the right
// policy for homogeneous task-parallel fan-out (the Figure 11 EP
// cluster experiment).
type RoundRobin struct{}

// Pick implements Policy.
func (RoundRobin) Pick(snaps []*Snapshot, _ ninf.SchedRequest) int {
	if len(snaps) == 0 {
		return -1
	}
	// The metaserver rotates candidates per placement, so index 0
	// walks the ring. Prefer the least-burdened among the first few
	// to avoid pile-ups when calls outnumber servers.
	best := 0
	for i, s := range snaps {
		if float64(s.Stats.Queued)+float64(s.Stats.Running)+overloadBias(s) <
			float64(snaps[best].Stats.Queued)+float64(snaps[best].Stats.Running)+overloadBias(snaps[best]) {
			best = i
		}
	}
	return best
}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// PolicyByName returns the named policy: "load-only",
// "bandwidth-aware" or "round-robin".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "load-only":
		return LoadOnly{}, nil
	case "bandwidth-aware":
		return BandwidthAware{}, nil
	case "round-robin":
		return RoundRobin{}, nil
	default:
		return nil, fmt.Errorf("metaserver: unknown policy %q", name)
	}
}

// SortSnapshotsByName orders snapshots for stable test output.
func SortSnapshotsByName(s []*Snapshot) {
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
}
