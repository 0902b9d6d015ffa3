package metaserver

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// peerDial returns a dialer that reaches a metaserver in-process: each
// dial produces a pipe served by the target's own daemon loop, so the
// gossip path under test is the real wire protocol.
func peerDial(target *Metaserver) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go func() {
			defer s.Close()
			target.ServeConn(s)
		}()
		return c, nil
	}
}

// twoReplicas builds a pair of peered metaservers sharing one real
// computational server registered on A only, so gossip must carry the
// registration to B.
func twoReplicas(t *testing.T) (a, b *Metaserver, serverAddr string) {
	t.Helper()
	_, addr, dial := startServer(t, server.Config{Hostname: "s0"})
	a = New(Config{Origin: "meta-a"})
	b = New(Config{Origin: "meta-b"})
	if err := a.AddServer("s0", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer("b", peerDial(b)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", peerDial(a)); err != nil {
		t.Fatal(err)
	}
	return a, b, addr
}

func TestGossipReplicatesRegistration(t *testing.T) {
	a, b, addr := twoReplicas(t)
	if got := len(b.Servers()); got != 0 {
		t.Fatalf("b has %d servers before gossip", got)
	}
	if ok := a.GossipOnce(); ok != 1 {
		t.Fatalf("GossipOnce = %d, want 1", ok)
	}
	snaps := b.Servers()
	if len(snaps) != 1 || snaps[0].Name != "s0" || snaps[0].Addr != addr {
		t.Fatalf("b servers after gossip = %+v", snaps)
	}
	// The gossiped entry must be schedulable end-to-end: B can place
	// on it and its dialer reaches the real server.
	pl, err := b.Place(ninf.SchedRequest{Routine: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Name != "s0" {
		t.Fatalf("placed on %q", pl.Name)
	}
	if b.PollOnce() != 1 {
		t.Error("b cannot poll the server it learned through gossip")
	}
}

func TestGossipReplicatesDeregistration(t *testing.T) {
	a, b, _ := twoReplicas(t)
	a.GossipOnce()
	if len(b.Servers()) != 1 {
		t.Fatal("registration did not replicate")
	}
	a.RemoveServer("s0")
	a.GossipOnce()
	if got := b.Servers(); len(got) != 0 {
		t.Fatalf("b still has %+v after replicated removal", got)
	}
}

func TestObserveRemoteIdempotent(t *testing.T) {
	m := New(Config{FailThreshold: 3})
	_, addr, dial := startServer(t, server.Config{})
	if err := m.AddServer("s0", addr, 100, dial); err != nil {
		t.Fatal(err)
	}
	// The same failed-call report delivered three times — a client
	// replaying to this replica after failovers — must count once.
	rep := protocol.ObserveRequest{Name: "s0", Failed: true, Origin: "client-1", Seq: 1}
	m.ObserveRemote(rep)
	m.ObserveRemote(rep)
	m.ObserveRemote(rep)
	snaps := m.Servers()
	if snaps[0].Fails != 1 {
		t.Errorf("Fails = %d after replayed report, want 1", snaps[0].Fails)
	}
	if got := m.ObservationCount("s0"); got != 1 {
		t.Errorf("ObservationCount = %d, want 1", got)
	}
	// A legacy report (no origin) has no replay identity and applies
	// every delivery.
	legacy := protocol.ObserveRequest{Name: "s0", Bytes: 8, Nanos: int64(time.Millisecond)}
	m.ObserveRemote(legacy)
	m.ObserveRemote(legacy)
	if got := m.ObservationCount("s0"); got != 3 {
		t.Errorf("ObservationCount = %d after two legacy reports, want 3", got)
	}
}

func TestGossipConvergesSplitObservations(t *testing.T) {
	// A client reports seqs 1..5 to A, then fails over and reports
	// 6..8 to B. After anti-entropy both replicas have all eight,
	// each exactly once, even though B first hears of seqs 1..5 only
	// through A's digest (a mid-stream takeover: B's log for the
	// origin starts at 6).
	a, b, _ := twoReplicas(t)
	a.GossipOnce() // replicate the registration first
	for seq := uint64(1); seq <= 5; seq++ {
		a.ObserveRemote(protocol.ObserveRequest{Name: "s0", Bytes: 8, Nanos: 1e6, Origin: "c", Seq: seq})
	}
	for seq := uint64(6); seq <= 8; seq++ {
		b.ObserveRemote(protocol.ObserveRequest{Name: "s0", Bytes: 8, Nanos: 1e6, Origin: "c", Seq: seq})
	}
	// One round each direction converges both logs.
	a.GossipOnce()
	b.GossipOnce()
	if got := a.ObservationCount("s0"); got != 8 {
		t.Errorf("a ObservationCount = %d, want 8", got)
	}
	if got := b.ObservationCount("s0"); got != 8 {
		t.Errorf("b ObservationCount = %d, want 8", got)
	}
	// Redundant rounds must not re-apply anything.
	a.GossipOnce()
	b.GossipOnce()
	if got := b.ObservationCount("s0"); got != 8 {
		t.Errorf("b ObservationCount = %d after extra rounds, want 8", got)
	}
}

// TestGossipConvergesPastManyOrigins: every RemoteScheduler is a new
// origin and origin logs are kept, so a long-lived replica's digest
// grows past any fixed entry cap. Replicas that have heard from 4101
// client origins must still exchange gossip and converge.
func TestGossipConvergesPastManyOrigins(t *testing.T) {
	const origins = 4101
	a, b, _ := twoReplicas(t)
	a.GossipOnce() // replicate the registration first
	for i := range origins {
		a.ObserveRemote(protocol.ObserveRequest{Name: "s0", Bytes: 8, Nanos: 1e6, Origin: fmt.Sprintf("client-%d", i), Seq: 1})
	}
	b.ObserveRemote(protocol.ObserveRequest{Name: "s0", Bytes: 8, Nanos: 1e6, Origin: "client-b", Seq: 1})
	// Records ship at most maxGossipBatch per exchange.
	for round := 0; round < 2*origins/maxGossipBatch+2; round++ {
		if ok := a.GossipOnce(); ok != 1 {
			t.Fatalf("round %d: a.GossipOnce = %d, want 1", round, ok)
		}
		if ok := b.GossipOnce(); ok != 1 {
			t.Fatalf("round %d: b.GossipOnce = %d, want 1", round, ok)
		}
	}
	if ca, cb := a.ObservationCount("s0"), b.ObservationCount("s0"); ca != origins+1 || cb != origins+1 {
		t.Errorf("ObservationCount a=%d b=%d, want both %d", ca, cb, origins+1)
	}
}

func TestGossipSharesPollLiveness(t *testing.T) {
	// B cannot reach the server (its entry arrives via gossip but we
	// kill its polls by breaker-failing it); A's successful poll,
	// gossiped over, must revive B's view.
	a, b, _ := twoReplicas(t)
	a.GossipOnce()
	// Fail the server on B until its breaker opens.
	for i := 0; i < 3; i++ {
		b.Observe("s0", 0, 0, errCallFailed)
	}
	if b.Servers()[0].Alive {
		t.Fatal("server still alive on b after failures")
	}
	// A polls first-hand (records a GossipStats entry because it has
	// peers), then gossips it to B.
	if a.PollOnce() != 1 {
		t.Fatal("a cannot poll")
	}
	a.GossipOnce()
	s := b.Servers()[0]
	if !s.Alive {
		t.Error("peer's successful poll did not revive the server on b")
	}
	if s.Stats.Hostname != "s0" {
		t.Errorf("stats did not transfer: %+v", s.Stats)
	}
}

func TestPeersHealth(t *testing.T) {
	a, b, _ := twoReplicas(t)
	if err := a.AddPeer("down", func() (net.Conn, error) {
		return nil, errors.New("refused")
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer("b", peerDial(b)); err == nil {
		t.Error("duplicate peer accepted")
	}
	if ok := a.GossipOnce(); ok != 1 {
		t.Fatalf("GossipOnce = %d, want 1 (one live, one dead)", ok)
	}
	ps := a.Peers()
	if len(ps) != 2 {
		t.Fatalf("peers = %+v", ps)
	}
	if ps[0].Addr != "b" || !ps[0].Alive || ps[0].Fails != 0 || ps[0].LastExchange.IsZero() {
		t.Errorf("live peer status = %+v", ps[0])
	}
	if ps[1].Addr != "down" || ps[1].Fails != 1 || !ps[1].LastExchange.IsZero() {
		t.Errorf("dead peer status = %+v", ps[1])
	}
	for i := 0; i < 2; i++ {
		a.GossipOnce()
	}
	if ps = a.Peers(); ps[1].Alive {
		t.Errorf("dead peer still Alive after %d failures", ps[1].Fails)
	}
}

func TestOriginLogPrunesButRemembers(t *testing.T) {
	l := &originLog{recs: make(map[uint64]protocol.GossipRecord)}
	n := uint64(maxLogPerOrigin + 100)
	for seq := uint64(1); seq <= n; seq++ {
		l.add(protocol.GossipRecord{Origin: "c", Seq: seq})
	}
	if len(l.recs) > maxLogPerOrigin {
		t.Errorf("retained %d records, cap %d", len(l.recs), maxLogPerOrigin)
	}
	if l.low != n || l.max != n {
		t.Errorf("low=%d max=%d, want both %d", l.low, l.max, n)
	}
	// Pruned records stay deduplicable through the watermark.
	if !l.has(1) || !l.has(n) {
		t.Error("pruned or present seq not recognized as applied")
	}
	if l.has(n + 1) {
		t.Error("future seq claimed applied")
	}
}

func TestOriginLogBoundedWithPermanentGap(t *testing.T) {
	// Seq 1 was consumed by its origin but never delivered anywhere (a
	// client burned the seq on a report dropped during a total outage):
	// the stream starts at 2 and the hole never closes. Retention must
	// stay bounded anyway — before strict eviction, a stalled watermark
	// blocked pruning and the log grew without bound.
	l := &originLog{recs: make(map[uint64]protocol.GossipRecord)}
	n := uint64(maxLogPerOrigin + 500)
	for seq := uint64(2); seq <= n; seq++ {
		l.add(protocol.GossipRecord{Origin: "c", Seq: seq})
	}
	if len(l.recs) > maxLogPerOrigin {
		t.Errorf("retained %d records with a stream hole, cap %d", len(l.recs), maxLogPerOrigin)
	}
	if l.low == 0 {
		t.Error("watermark still frozen at the hole after eviction")
	}
	// Evicted and healed-over seqs stay deduplicable via the watermark.
	if !l.has(1) || !l.has(2) || !l.has(l.low) {
		t.Errorf("low=%d: evicted/healed seq not recognized as applied", l.low)
	}
	if l.has(n + 1) {
		t.Error("future seq claimed applied")
	}
}

func TestOriginLogHealsGapAfterHorizon(t *testing.T) {
	l := &originLog{recs: make(map[uint64]protocol.GossipRecord)}
	l.add(protocol.GossipRecord{Origin: "c", Seq: 2})
	l.add(protocol.GossipRecord{Origin: "c", Seq: 3})
	now := time.Now()
	// First sight of the stall arms the clock; within the horizon the
	// hole is presumed transient (the record may be on a peer).
	if l.healGaps(now) {
		t.Error("hole healed on first sight")
	}
	if l.healGaps(now.Add(gapHorizon / 2)) {
		t.Error("hole healed inside the horizon")
	}
	if l.low != 0 {
		t.Fatalf("low = %d before healing, want 0", l.low)
	}
	// Past the horizon it is declared permanent and the watermark jumps
	// over it.
	if !l.healGaps(now.Add(gapHorizon + time.Second)) {
		t.Fatal("hole not healed past the horizon")
	}
	if l.low != 3 {
		t.Errorf("low = %d after healing, want 3", l.low)
	}
	if !l.has(1) {
		t.Error("healed-over seq not recognized as applied")
	}
	// A whole stream keeps healGaps quiet.
	if l.healGaps(now.Add(2 * gapHorizon)) {
		t.Error("healGaps reported a close on a whole stream")
	}
}

func TestHealedGapStopsGossipResend(t *testing.T) {
	// A peer whose digest Low is stuck below a permanent hole receives
	// every retained record above it again on every round. Once the
	// peer heals the hole, its digest advances and the re-send stream
	// must dry up.
	a, b, _ := twoReplicas(t)
	a.GossipOnce()
	for seq := uint64(2); seq <= 4; seq++ {
		a.ObserveRemote(protocol.ObserveRequest{Name: "s0", Bytes: 8, Nanos: 1e6, Origin: "c", Seq: seq})
	}
	a.GossipOnce()
	if got := b.ObservationCount("s0"); got != 3 {
		t.Fatalf("b ObservationCount = %d, want 3", got)
	}
	now := time.Now()
	b.mu.Lock()
	b.sweepLocked(now) // arms the stall clock (if gossip has not already)
	b.sweepLocked(now.Add(gapHorizon + time.Second))
	b.mu.Unlock()
	a.GossipOnce() // a learns b's healed digest from the reply
	a.mu.Lock()
	var digest []protocol.GossipDigest
	for _, p := range a.peers {
		if p.addr == "b" {
			digest = p.lastDigest
		}
	}
	miss := a.missingLocked(digest)
	a.mu.Unlock()
	for _, rec := range miss {
		if rec.Origin == "c" {
			t.Errorf("still re-sending %+v after the peer healed its hole", rec)
		}
	}
}

func TestMembershipTombstoneCommutes(t *testing.T) {
	// A register and a (newer) deregister from different origins have
	// no causal order: whichever arrives second, every replica must end
	// with the server removed — before tombstones, the replica that
	// applied the register last resurrected it and diverged forever.
	reg := protocol.GossipRecord{Origin: "meta-b", Seq: 1, Kind: protocol.GossipRegister,
		Name: "s9", Addr: "127.0.0.1:9", Power: 10, AtUnixNanos: 100}
	dereg := protocol.GossipRecord{Origin: "meta-c", Seq: 1, Kind: protocol.GossipDeregister,
		Name: "s9", AtUnixNanos: 101}

	apply := func(m *Metaserver, recs ...protocol.GossipRecord) {
		t.Helper()
		for _, rec := range recs {
			m.mu.Lock()
			m.applyLocked([]protocol.GossipRecord{rec})
			m.mu.Unlock()
		}
	}
	regFirst, deregFirst := New(Config{Origin: "x"}), New(Config{Origin: "y"})
	apply(regFirst, reg, dereg)
	apply(deregFirst, dereg, reg)
	if got := regFirst.Servers(); len(got) != 0 {
		t.Errorf("register-then-deregister left %+v", got)
	}
	if got := deregFirst.Servers(); len(got) != 0 {
		t.Errorf("deregister-then-register resurrected %+v", got)
	}

	// A registration genuinely newer than the tombstone (the operator
	// re-added the server) wins in either order.
	reg2 := reg
	reg2.Seq, reg2.AtUnixNanos = 2, 102
	apply(regFirst, reg2)
	deregFirst2 := New(Config{Origin: "z"})
	apply(deregFirst2, reg2, dereg)
	for name, m := range map[string]*Metaserver{"tomb-then-reg2": regFirst, "reg2-then-tomb": deregFirst2} {
		if got := m.Servers(); len(got) != 1 || got[0].Name != "s9" {
			t.Errorf("%s: newer registration lost, servers = %+v", name, got)
		}
	}
}

func TestReRegisterAfterRemoveReplicates(t *testing.T) {
	// End-to-end over the wire: removal replicates, the tombstone does
	// not block a genuine re-registration, and the re-registration
	// replicates too.
	a, b, _ := twoReplicas(t)
	a.GossipOnce()
	a.RemoveServer("s0")
	a.GossipOnce()
	if got := b.Servers(); len(got) != 0 {
		t.Fatalf("b still has %+v after replicated removal", got)
	}
	_, addr2, dial := startServer(t, server.Config{Hostname: "s0"})
	if err := a.AddServer("s0", addr2, 100, dial); err != nil {
		t.Fatal(err)
	}
	a.GossipOnce()
	if got := b.Servers(); len(got) != 1 || got[0].Name != "s0" {
		t.Fatalf("re-registration did not replicate: %+v", got)
	}
}

func TestJitterIntervalSpread(t *testing.T) {
	const d = 100 * time.Millisecond
	lo, hi := d/2, 3*d/2
	seen := make(map[time.Duration]bool)
	min, max := hi, time.Duration(0)
	for i := 0; i < 1000; i++ {
		j := jitterInterval(d)
		if j < lo || j >= hi {
			t.Fatalf("jitter %v outside [%v, %v)", j, lo, hi)
		}
		seen[j] = true
		if j < min {
			min = j
		}
		if j > max {
			max = j
		}
	}
	// The schedule must actually spread: replicas drawing from the
	// same clock tick land across the window, not on one instant.
	if len(seen) < 100 {
		t.Errorf("only %d distinct delays in 1000 draws", len(seen))
	}
	if min > 3*d/4 || max < 5*d/4 {
		t.Errorf("draws cover [%v, %v], want most of [%v, %v)", min, max, lo, hi)
	}
}
