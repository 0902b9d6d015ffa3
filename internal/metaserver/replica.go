package metaserver

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"ninf/internal/protocol"
)

// Replication. A metaserver replica set keeps every replica able to
// schedule on its own: each replica polls the computational servers
// itself, and the state that cannot be re-derived locally — server
// registrations, client-reported call outcomes, the freshest poll a
// *peer* took — travels between replicas as gossip records with
// per-origin sequence numbers. A record's (origin, seq) identity makes
// application idempotent, which covers both gossip redelivery and a
// client replaying an unacknowledged outcome report to a second
// replica after failing over: the outcome lands once in every
// replica's view, never twice.
//
// The exchange is pairwise anti-entropy (MsgGossip/MsgGossipOK, one
// round trip): the caller sends its digest plus the records it
// believes the peer lacks; the peer applies, then answers with its own
// digest plus the records the caller provably lacks. Both directions
// converge within two rounds of any quiet period.

const (
	// maxLogPerOrigin bounds how many records of one origin a replica
	// retains for anti-entropy; records below the contiguous watermark
	// are pruned first (they stay deduplicable via the watermark).
	maxLogPerOrigin = 2048
	// maxGossipBatch bounds the records shipped in one exchange; the
	// remainder goes next round.
	maxGossipBatch = 1024
	// gapHorizon is how long a hole in an origin's seq stream may stall
	// the contiguous watermark before it is declared permanent. Holes
	// are normally transient — a client failed over mid-stream and the
	// early records arrive from a peer within a round or two — but a
	// seq consumed while every replica was unreachable was never
	// delivered anywhere and never will be. Healing over it keeps the
	// digest Low advancing, which is what lets peers stop re-sending
	// retained records and lets pruning keep the log bounded.
	gapHorizon = 15 * time.Second
	// tombRetention is how long a deregistration tombstone is kept to
	// refuse older register records still circulating through gossip.
	tombRetention = time.Hour
)

// originLog holds one origin's records. All seqs <= low have been
// applied; recs holds retained records, including any above low when
// the stream arrived with gaps. Everything at or below pruned has been
// dropped from recs after application (pruned <= low always).
type originLog struct {
	recs   map[uint64]protocol.GossipRecord
	low    uint64
	max    uint64
	pruned uint64
	// gapSince is when low was first seen stalled below max (zero while
	// the stream is contiguous); healGaps closes holes older than
	// gapHorizon.
	gapSince time.Time
}

// has reports whether the record identified by seq was already
// applied.
func (l *originLog) has(seq uint64) bool {
	if seq <= l.low {
		return true
	}
	_, ok := l.recs[seq]
	return ok
}

// add stores an applied record, advances the contiguous watermark over
// any gap it closes, and prunes the retained set down to the cap. The
// cap is strict: when the watermark is stalled at a hole in the stream
// and nothing below it is prunable, the lowest retained record is
// evicted and the hole is treated as applied, so a permanent gap (a
// seq its origin consumed but never delivered — e.g. a client burned a
// seq on a report dropped during a total outage) can never grow the
// log without bound.
func (l *originLog) add(rec protocol.GossipRecord) {
	l.recs[rec.Seq] = rec
	if rec.Seq > l.max {
		l.max = rec.Seq
	}
	l.advance()
	for len(l.recs) > maxLogPerOrigin {
		if l.pruned < l.low {
			l.pruned++
			delete(l.recs, l.pruned)
			continue
		}
		// low is stalled at a hole with the cap exceeded: evict the
		// lowest retained seq and advance the watermark over the hole.
		// If the missing records ever materialize they are dropped as
		// duplicates — losing a straggler observation is the price of
		// bounded retention.
		min := uint64(0)
		for seq := range l.recs {
			if min == 0 || seq < min {
				min = seq
			}
		}
		delete(l.recs, min)
		if min > l.low {
			l.low = min
		}
		l.pruned = min
		l.advance()
	}
}

// advance moves the contiguous watermark over retained records and
// clears the stall clock once the stream is whole.
func (l *originLog) advance() {
	for {
		if _, ok := l.recs[l.low+1]; !ok {
			break
		}
		l.low++
	}
	if l.low >= l.max {
		l.gapSince = time.Time{}
	}
}

// healGaps declares a stream hole permanent once it has stalled the
// contiguous watermark past gapHorizon, advancing low over it so the
// digest keeps moving, peers stop re-sending records above it, and
// pruning stays unblocked. It reports whether a hole was closed.
func (l *originLog) healGaps(now time.Time) bool {
	if l.low >= l.max {
		l.gapSince = time.Time{}
		return false
	}
	if l.gapSince.IsZero() {
		l.gapSince = now
		return false
	}
	if now.Sub(l.gapSince) < gapHorizon {
		return false
	}
	// Jump to just below the lowest retained seq above the watermark;
	// the hole's seqs count as applied from here on (a record that
	// materializes later is dropped as a duplicate).
	next := uint64(0)
	for seq := range l.recs {
		if seq > l.low && (next == 0 || seq < next) {
			next = seq
		}
	}
	if next == 0 {
		l.low = l.max
	} else {
		l.low = next - 1
		l.advance()
	}
	l.gapSince = time.Time{}
	return true
}

// logLocked returns the origin's log, creating it on first use.
// Callers hold m.mu.
func (m *Metaserver) logLocked(origin string) *originLog {
	l, ok := m.log[origin]
	if !ok {
		l = &originLog{recs: make(map[uint64]protocol.GossipRecord)}
		m.log[origin] = l
	}
	return l
}

// sweepLocked runs once per gossip round: it heals stream holes older
// than gapHorizon so digests (and therefore pruning and peer re-sends)
// never freeze on a permanently lost seq, and expires deregistration
// tombstones past their retention. Callers hold m.mu.
func (m *Metaserver) sweepLocked(now time.Time) {
	for _, l := range m.log {
		l.healGaps(now)
	}
	m.pruneTombsLocked(now)
}

// pruneTombsLocked drops deregistration tombstones old enough that no
// register record predating them can still be circulating. Callers
// hold m.mu.
func (m *Metaserver) pruneTombsLocked(now time.Time) {
	cutoff := now.Add(-tombRetention).UnixNano()
	for name, at := range m.tombs {
		if at < cutoff {
			delete(m.tombs, name)
		}
	}
}

// recordLocked stamps a locally originated record with this replica's
// origin and next sequence number and stores it for gossip. Callers
// hold m.mu.
func (m *Metaserver) recordLocked(rec protocol.GossipRecord) {
	m.seq++
	rec.Origin = m.origin
	rec.Seq = m.seq
	m.logLocked(m.origin).add(rec)
}

// digestLocked summarizes the whole log, sorted by origin for stable
// output. Callers hold m.mu.
func (m *Metaserver) digestLocked() []protocol.GossipDigest {
	out := make([]protocol.GossipDigest, 0, len(m.log))
	for origin, l := range m.log {
		out = append(out, protocol.GossipDigest{Origin: origin, Low: l.low, Max: l.max})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// missingLocked collects records the holder of the given digest lacks:
// for each origin, everything retained above the digest's contiguous
// watermark. Seqs inside the peer's gap windows are re-sent and
// deduplicated there — anti-entropy trades a little redundancy for
// convergence without per-seq bookkeeping. Callers hold m.mu.
func (m *Metaserver) missingLocked(peerDigest []protocol.GossipDigest) []protocol.GossipRecord {
	// An origin absent from the digest has floor zero: the peer gets
	// everything retained and dedups on its side.
	low := make(map[string]uint64, len(peerDigest))
	for _, d := range peerDigest {
		low[d.Origin] = d.Low
	}
	var out []protocol.GossipRecord
	for origin, l := range m.log {
		floor := low[origin]
		for seq, rec := range l.recs {
			if seq > floor {
				out = append(out, rec)
			}
		}
	}
	// One global (origin, seq) sort keeps each origin's stream in
	// production order for the receiver's order-sensitive effects, and
	// makes the batch cap deterministic: the cut keeps whole low-seq
	// prefixes, the remainder ships next round.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Seq < out[j].Seq
	})
	if len(out) > maxGossipBatch {
		out = out[:maxGossipBatch]
	}
	return out
}

// applyLocked applies a batch of records, skipping duplicates by
// (origin, seq). Records are applied in per-origin sequence order so
// order-sensitive effects (breaker streaks) see each origin's stream
// as it was produced. Callers hold m.mu.
func (m *Metaserver) applyLocked(recs []protocol.GossipRecord) int {
	if len(recs) == 0 {
		return 0
	}
	sorted := append([]protocol.GossipRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Origin != sorted[j].Origin {
			return sorted[i].Origin < sorted[j].Origin
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	applied := 0
	for _, rec := range sorted {
		if rec.Origin == "" || rec.Seq == 0 {
			continue // malformed; never log, never apply
		}
		l := m.logLocked(rec.Origin)
		if l.has(rec.Seq) {
			continue
		}
		l.add(rec)
		m.applyRecordLocked(rec)
		applied++
	}
	return applied
}

// applyRecordLocked applies one record's effect to the placement view.
// Callers hold m.mu and have already deduplicated.
//
// Register and deregister have no causal order across origins, so
// membership conflicts resolve by registration timestamp against a
// deregistration tombstone — the same latest-wins rule on every
// replica, whichever order the records arrive in: a register older
// than the tombstone is refused (an operator's removal racing the
// original registration through gossip must not resurrect the server
// anywhere), a register newer than it wins (the operator re-added the
// server), and on equal stamps the deregister wins.
func (m *Metaserver) applyRecordLocked(rec protocol.GossipRecord) {
	switch rec.Kind {
	case protocol.GossipRegister:
		if t, ok := m.tombs[rec.Name]; ok && rec.AtUnixNanos <= t {
			return // deregistered at or after this registration
		}
		if e, ok := m.servers[rec.Name]; ok {
			// Already known (both replicas were told directly, or a
			// re-registration): refresh the advertised coordinates.
			e.Addr = rec.Addr
			if rec.Power > 0 {
				e.PowerMflops = rec.Power
			}
			if rec.AtUnixNanos > e.registeredAt {
				e.registeredAt = rec.AtUnixNanos
			}
			return
		}
		e := &entry{dial: tcpDialer(rec.Addr), registeredAt: rec.AtUnixNanos}
		e.Name = rec.Name
		e.Addr = rec.Addr
		e.Alive = true
		e.PowerMflops = rec.Power
		e.Bandwidth = initialBandwidth
		m.servers[rec.Name] = e
		m.order = append(m.order, rec.Name)
	case protocol.GossipDeregister:
		// Unstamped records come from a pre-tombstone replica and leave
		// no tombstone — legacy remove-only semantics.
		if rec.AtUnixNanos > 0 && rec.AtUnixNanos > m.tombs[rec.Name] {
			m.tombs[rec.Name] = rec.AtUnixNanos
		}
		if e, ok := m.servers[rec.Name]; ok && rec.AtUnixNanos < e.registeredAt {
			return // a newer registration outlives this removal
		}
		m.removeLocked(rec.Name)
	case protocol.GossipObserve:
		e, ok := m.servers[rec.Name]
		if !ok {
			return
		}
		if rec.Overloaded {
			m.applyOverloadLocked(e, rec.RetryAfterMillis)
		} else {
			m.applyObserveLocked(e, rec.Bytes, time.Duration(rec.Nanos), rec.Failed)
		}
	case protocol.GossipStats:
		e, ok := m.servers[rec.Name]
		if !ok {
			return
		}
		at := time.Unix(0, rec.AtUnixNanos)
		if !at.After(e.LastSeen) {
			return // we have fresher first-hand (or gossiped) state
		}
		st, err := protocol.DecodeStats(rec.Stats)
		if err != nil {
			return
		}
		prevEpoch := e.Stats.Epoch
		e.Stats = st
		e.LastSeen = at
		m.noteStatsEpochLocked(e, prevEpoch)
		// A peer's successful poll is liveness evidence as good as our
		// own: it revives a server our polls could not reach.
		e.brk.onSuccess(m.transition(e))
		m.syncEntry(e)
		e.refresh(time.Now())
	}
}

// A peer is one fellow replica this metaserver gossips with.
type peer struct {
	addr string
	dial func() (net.Conn, error)

	// Guarded by the metaserver's mutex:
	lastDigest []protocol.GossipDigest // peer's log digest from its last reply
	lastOK     time.Time
	fails      int
}

// PeerStatus is the health of one peer replica as seen from here.
type PeerStatus struct {
	// Addr is the peer's configured daemon address.
	Addr string
	// LastExchange is when the peer last completed an anti-entropy
	// round trip (zero if never).
	LastExchange time.Time
	// Fails is the consecutive failed-exchange streak.
	Fails int
	// Alive is false once Fails reaches the metaserver's fail
	// threshold.
	Alive bool
}

// AddPeer registers a fellow replica by daemon address. dial may be
// nil for plain TCP.
func (m *Metaserver) AddPeer(addr string, dial func() (net.Conn, error)) error {
	if addr == "" {
		return errors.New("metaserver: peer needs an address")
	}
	if dial == nil {
		dial = tcpDialer(addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		if p.addr == addr {
			return fmt.Errorf("metaserver: peer %q already registered", addr)
		}
	}
	m.peers = append(m.peers, &peer{addr: addr, dial: dial})
	return nil
}

// Peers reports per-peer replication health in registration order.
func (m *Metaserver) Peers() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, PeerStatus{
			Addr:         p.addr,
			LastExchange: p.lastOK,
			Fails:        p.fails,
			Alive:        p.fails < m.cfg.FailThreshold,
		})
	}
	return out
}

// Origin returns this replica's gossip origin ID.
func (m *Metaserver) Origin() string { return m.origin }

// ObservationCount returns how many distinct call-outcome records have
// been applied for the named server — a convergence probe: replicas
// that have exchanged gossip report equal counts because records are
// deduplicated by (origin, seq).
func (m *Metaserver) ObservationCount(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.servers[name]; ok {
		return e.ObsCount
	}
	return 0
}

// GossipOnce runs one anti-entropy round with every peer and reports
// how many answered. Exchanges run concurrently; the metaserver lock
// is held only to assemble requests and apply replies, never across
// network I/O.
func (m *Metaserver) GossipOnce() int {
	m.mu.Lock()
	m.sweepLocked(time.Now())
	peers := append([]*peer(nil), m.peers...)
	reqs := make([]protocol.GossipRequest, len(peers))
	for i, p := range peers {
		reqs[i] = protocol.GossipRequest{
			From:    m.origin,
			Digest:  m.digestLocked(),
			Records: m.missingLocked(p.lastDigest),
		}
	}
	m.mu.Unlock()

	type result struct {
		reply protocol.GossipReply
		err   error
	}
	results := make([]result, len(peers))
	done := make(chan int, len(peers))
	for i := range peers {
		go func(i int) {
			defer func() { done <- i }()
			results[i].reply, results[i].err = exchangeGossip(peers[i].dial, reqs[i])
		}(i)
	}
	ok := 0
	now := time.Now()
	for range peers {
		i := <-done
		m.mu.Lock()
		p := peers[i]
		if err := results[i].err; err != nil {
			p.fails++
			m.mu.Unlock()
			continue
		}
		m.applyLocked(results[i].reply.Records)
		p.lastDigest = results[i].reply.Digest
		p.lastOK = now
		p.fails = 0
		m.mu.Unlock()
		ok++
	}
	return ok
}

// exchangeGossip performs one MsgGossip round trip on a fresh
// connection.
func exchangeGossip(dial func() (net.Conn, error), req protocol.GossipRequest) (protocol.GossipReply, error) {
	conn, err := dial()
	if err != nil {
		return protocol.GossipReply{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	out := protocol.AcquireBuffer(req.SizeHint())
	req.EncodeInto(out.Encoder())
	typ, fb, err := protocol.Roundtrip(conn, protocol.MsgGossip, out, daemonMaxPayload)
	if err != nil {
		return protocol.GossipReply{}, err
	}
	defer fb.Release()
	if typ != protocol.MsgGossipOK {
		return protocol.GossipReply{}, fmt.Errorf("metaserver: unexpected reply %v to gossip", typ)
	}
	return protocol.DecodeGossipReply(fb.Payload())
}

// handleGossip is the serving side of one anti-entropy exchange: apply
// what the peer pushed, answer with our digest and what the peer's
// digest shows it lacks.
func (m *Metaserver) handleGossip(req protocol.GossipRequest) protocol.GossipReply {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	m.applyLocked(req.Records)
	return protocol.GossipReply{
		Digest:  m.digestLocked(),
		Records: m.missingLocked(req.Digest),
	}
}

// StartGossip runs anti-entropy rounds against all peers roughly every
// interval (full-jitter, like the monitor's poll schedule) until the
// returned stop function is called.
func (m *Metaserver) StartGossip(interval time.Duration) (stop func()) {
	return startJitteredLoop(interval, func() { m.GossipOnce() })
}
