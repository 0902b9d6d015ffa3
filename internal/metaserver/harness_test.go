package metaserver

// An in-memory replica harness. N replicas gossip through the code
// GossipOnce runs — gossipRequest on the caller, handleGossip on the
// peer, gossipReply back on the caller — one pairwise exchange at a
// time, with no sockets and one virtual clock. From one seed a script
// interleaves K client origins that place and report outcomes,
// operators adding and removing servers, and exchanges, under
// partitions, dropped and duplicated messages, exchanges that complete
// out of order, and replicas that join late. After the partitions heal
// the replicas gossip until nothing moves, and the oracle checks the
// state the design promises converges (DESIGN.md §6, "Metaserver: one
// clock, and what converges"): the server set, the tombs, the
// per-origin digests and each server's exact ObservationCount.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
)

// script sizes one seeded harness run.
type script struct {
	seed     int64
	replicas int // at the start; late more join mid-run
	late     int
	origins  int // client origins
	records  int // client outcome reports issued
	// idle is a quiet spell, gossip running, before the first late
	// replica joins.
	idle time.Duration
}

// harnessScripts are the committed seeds. The last is the full-size
// run: 3 replicas × 1k client origins × 10k outcome reports.
var harnessScripts = []script{
	{seed: 1, replicas: 2, late: 1, origins: 8, records: 300},
	{seed: 2, replicas: 3, late: 0, origins: 20, records: 600},
	{seed: 3, replicas: 2, late: 2, origins: 50, records: 1000, idle: 2 * time.Hour},
	{seed: 4, replicas: 2, late: 1, origins: 1000, records: 10000, idle: 2 * time.Hour},
}

func TestReplicaHarness(t *testing.T) {
	for _, sc := range harnessScripts {
		t.Run(fmt.Sprintf("seed=%d/replicas=%d+%d/origins=%d/records=%d", sc.seed, sc.replicas, sc.late, sc.origins, sc.records), func(t *testing.T) {
			start := time.Now()
			h := newHarness(t, sc.seed)
			h.run(sc)
			h.converge()
			h.check()
			t.Logf("%d exchanges, %d reports over %d servers, faults %v, %v", h.exchanges, sc.records, len(h.issued), h.faults, time.Since(start))
		})
	}
}

// errCut is a harness exchange or report that never arrived.
var errCut = errors.New("harness: message lost")

type harness struct {
	t   *testing.T
	rng *rand.Rand
	clk *clock

	reps    []*Metaserver
	cut     map[*Metaserver]bool // partitioned from every other replica
	healAt  time.Time
	pending []flight // exchanges started and not yet delivered

	clients []*harnessClient
	// Ground truth: distinct reports issued per server name, the names
	// ever added and the names removed.
	issued  map[string]int
	added   []string
	removed map[string]bool

	exchanges int
	faults    map[string]int // injected, by kind
}

// flight is one exchange in progress: the caller's request, built, not
// yet handled by the peer.
type flight struct {
	from, to *Metaserver
	req      protocol.GossipRequest
}

type harnessClient struct {
	origin string
	seq    uint64
}

func newHarness(t *testing.T, seed int64) *harness {
	return &harness{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		clk:     newClock(),
		cut:     map[*Metaserver]bool{},
		issued:  map[string]int{},
		removed: map[string]bool{},
		faults:  map[string]int{},
	}
}

// join starts an empty replica and peers it with every other.
func (h *harness) join() *Metaserver {
	m := newMetaserver(Config{Origin: fmt.Sprintf("meta-%d", len(h.reps))}, h.clk.now)
	for _, o := range h.reps {
		h.peer(m, o)
		h.peer(o, m)
	}
	h.reps = append(h.reps, m)
	return m
}

func (h *harness) peer(m, o *Metaserver) {
	unused := func() (net.Conn, error) { return nil, errors.New("harness: no sockets") }
	if err := m.AddPeer(o.Origin(), unused); err != nil {
		h.t.Fatal(err)
	}
}

// peerOf is m's view of the replica o.
func peerOf(m, o *Metaserver) *peer {
	for _, p := range m.peers {
		if p.addr == o.Origin() {
			return p
		}
	}
	panic("harness: not peered")
}

// exchange runs one exchange from a to b now, or starts it and
// leaves it in flight to finish after later ones.
func (h *harness) exchange(a, b *Metaserver) {
	f := flight{a, b, a.gossipRequest(peerOf(a, b))}
	if h.rng.Intn(8) == 0 {
		h.faults["late"]++
		h.pending = append(h.pending, f)
		return
	}
	h.deliver(f)
}

// deliver finishes an exchange, unless a partition or a fault loses
// the request or the reply; either may also arrive twice.
func (h *harness) deliver(f flight) {
	h.exchanges++
	p := peerOf(f.from, f.to)
	if h.cut[f.from] || h.cut[f.to] || h.fault(20, "lost") {
		f.from.gossipReply(p, protocol.GossipReply{}, errCut)
		return
	}
	reply := f.to.handleGossip(f.req)
	if h.fault(10, "dup") {
		reply = f.to.handleGossip(f.req)
	}
	if h.fault(20, "lost") {
		f.from.gossipReply(p, protocol.GossipReply{}, errCut)
		return
	}
	f.from.gossipReply(p, reply, nil)
	if h.fault(10, "dup") {
		f.from.gossipReply(p, reply, nil)
	}
}

// report is one client's call: place through a replica, then report
// the outcome to it. A lost report is replayed, as RemoteScheduler
// fails over, to the next replica; a replay may also reach a replica
// that already has it. It reports whether the placement, and so the
// report, happened.
func (h *harness) report(c *harnessClient) bool {
	r := h.rng.Intn(len(h.reps))
	pl, err := h.reps[r].Place(ninf.SchedRequest{Routine: "x"})
	if err != nil {
		return false
	}
	c.seq++
	req := protocol.ObserveRequest{Name: pl.Name, Bytes: int64(1 + h.rng.Intn(1<<20)), Nanos: int64(1 + h.rng.Intn(1e9)),
		Failed: h.rng.Intn(10) == 0, Origin: c.origin, Seq: c.seq}
	h.issued[pl.Name]++
	for i := 0; ; i++ {
		m := h.reps[(r+i)%len(h.reps)]
		if i < len(h.reps)-1 && h.fault(10, "lost") {
			continue // fail over
		}
		m.ObserveRemote(req)
		if h.fault(10, "dup") {
			h.reps[h.rng.Intn(len(h.reps))].ObserveRemote(req)
		}
		return true
	}
}

// membership adds a server on one replica or removes one it knows.
func (h *harness) membership() {
	m := h.reps[h.rng.Intn(len(h.reps))]
	if snaps := m.Servers(); len(snaps) > 2 && h.rng.Intn(3) == 0 {
		name := snaps[h.rng.Intn(len(snaps))].Name
		m.RemoveServer(name)
		h.removed[name] = true
		return
	}
	name := fmt.Sprintf("s%03d", len(h.added))
	if err := m.AddServer(name, name+":7000", 100, deadServer); err != nil {
		h.t.Fatal(err)
	}
	h.added = append(h.added, name)
}

// run plays the script: reports, membership changes and exchanges in
// seeded order, partitions shorter than gapHorizon, late joins.
func (h *harness) run(sc script) {
	for range sc.replicas {
		h.join()
	}
	for i := range sc.origins {
		h.clients = append(h.clients, &harnessClient{origin: fmt.Sprintf("client-%04d", i)})
	}
	for range 4 {
		h.membership()
	}
	joinAt := map[int]bool{}
	for i := range sc.late {
		joinAt[(i+1)*sc.records/(sc.late+1)] = true
	}
	for n := 0; n < sc.records; {
		h.clk.advance(time.Duration(h.rng.Intn(20)) * time.Millisecond)
		if !h.healAt.IsZero() && !h.clk.now().Before(h.healAt) {
			clear(h.cut)
			h.healAt = time.Time{}
		}
		switch x := h.rng.Intn(100); {
		case x < 80:
			if joinAt[n] {
				delete(joinAt, n)
				if sc.idle > 0 && len(h.reps) == sc.replicas {
					h.converge()
					h.clk.advance(sc.idle)
				}
				h.join()
			}
			if h.report(h.clients[h.rng.Intn(len(h.clients))]) {
				n++
			}
		case x < 92:
			a, b := h.pair()
			h.exchange(a, b)
		case x < 95 && len(h.pending) > 0:
			i := h.rng.Intn(len(h.pending))
			f := h.pending[i]
			h.pending = slices.Delete(h.pending, i, i+1)
			h.deliver(f)
		case x < 96:
			h.membership()
		case x < 97 && h.healAt.IsZero():
			h.faults["partition"]++
			h.cut[h.reps[h.rng.Intn(len(h.reps))]] = true
			h.healAt = h.clk.now().Add(time.Duration(1+h.rng.Intn(5)) * time.Second)
		}
	}
}

// fault draws a fault of the kind with odds 1 in n and counts it.
func (h *harness) fault(n int, kind string) bool {
	if h.rng.Intn(n) != 0 {
		return false
	}
	h.faults[kind]++
	return true
}

// pair draws an ordered pair of distinct replicas.
func (h *harness) pair() (a, b *Metaserver) {
	i := h.rng.Intn(len(h.reps))
	j := (i + 1 + h.rng.Intn(len(h.reps)-1)) % len(h.reps)
	return h.reps[i], h.reps[j]
}

// converge heals every partition, finishes every exchange in flight,
// and runs fault-free rounds over every ordered pair until no replica
// holds a record another lacks.
func (h *harness) converge() {
	clear(h.cut)
	h.healAt = time.Time{}
	for _, f := range h.pending {
		h.deliver(f)
	}
	h.pending = nil
	for round := 0; ; round++ {
		if round == 64 {
			h.t.Fatalf("no quiescence after %d fault-free rounds", round)
		}
		for _, a := range h.reps {
			for _, b := range h.reps {
				if a != b {
					h.clk.advance(time.Millisecond)
					h.exchanges++
					p := peerOf(a, b)
					a.gossipReply(p, b.handleGossip(a.gossipRequest(p)), nil)
				}
			}
		}
		if h.quiet() {
			return
		}
	}
}

// quiet reports that no replica has a record another lacks.
func (h *harness) quiet() bool {
	for _, a := range h.reps {
		for _, b := range h.reps {
			b.mu.Lock()
			d := b.digestLocked()
			b.mu.Unlock()
			a.mu.Lock()
			n := len(a.missingLocked(d))
			a.mu.Unlock()
			if n > 0 {
				return false
			}
		}
	}
	return true
}

// check is the oracle: every replica holds the servers added and not
// removed, a tomb for each removed one, the same per-origin digests,
// and for each server exactly the reports issued for it.
func (h *harness) check() {
	var want []string
	for _, name := range h.added {
		if !h.removed[name] {
			want = append(want, name)
		}
	}
	first := h.reps[0]
	first.mu.Lock()
	digest := fmt.Sprint(first.digestLocked())
	tombs := fmt.Sprint(first.tombs)
	first.mu.Unlock()
	for _, m := range h.reps {
		var got []string
		for _, s := range m.Servers() {
			got = append(got, s.Name)
			if n := m.ObservationCount(s.Name); n != h.issued[s.Name] {
				h.t.Errorf("%s: ObservationCount(%s) = %d, want %d", m.Origin(), s.Name, n, h.issued[s.Name])
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			h.t.Errorf("%s: servers %v, want %v", m.Origin(), got, want)
		}
		m.mu.Lock()
		if got := fmt.Sprint(m.digestLocked()); got != digest {
			h.t.Errorf("%s: digest differs from %s's", m.Origin(), first.Origin())
		}
		if got := fmt.Sprint(m.tombs); got != tombs {
			h.t.Errorf("%s: tombs %s, %s has %s", m.Origin(), got, first.Origin(), tombs)
		}
		if len(m.tombs) != len(h.removed) {
			h.t.Errorf("%s: %d tombs for %d removed servers", m.Origin(), len(m.tombs), len(h.removed))
		}
		m.mu.Unlock()
	}
}

// TestLateReplicaKeepsRemovedServerRemoved: a replica that starts
// empty — new, or restarted, since replica state is not persisted —
// learns an old removal and the older registration it overrides in
// separate batches when more than maxGossipBatch records sort between
// them. The tomb must still be there when the registration arrives,
// however long ago the removal was.
func TestLateReplicaKeepsRemovedServerRemoved(t *testing.T) {
	h := newHarness(t, 0)
	a, b := h.join(), h.join()
	if err := b.AddServer("s0", "s0:7000", 100, deadServer); err != nil {
		t.Fatal(err)
	}
	h.converge()
	a.RemoveServer("s0")
	for i := range maxGossipBatch + 76 {
		name := fmt.Sprintf("x%04d", i)
		if err := a.AddServer(name, name+":7000", 100, deadServer); err != nil {
			t.Fatal(err)
		}
	}
	h.converge()
	h.clk.advance(2 * time.Hour)
	h.join()
	h.converge()
	for _, m := range h.reps {
		for _, s := range m.Servers() {
			if s.Name == "s0" {
				t.Errorf("%s holds s0, removed two hours before it joined", m.Origin())
			}
		}
	}
}
