package ninf_test

// End-to-end coverage for the content-addressed argument cache and
// persistent data handles: warm calls ship
// 20-byte digest markers instead of megabyte operands, a mid-upload
// connection cut can never poison the cache, eviction behind the
// client's back degrades to one transparent re-upload, and a session
// with a cache-disabled server carries no digest framing on the wire.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/idl"
	"ninf/internal/metaserver"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// startCountingServer runs a server whose one routine, cdouble,
// doubles v into w and counts invocations — so exactly-once delivery
// under faults is asserted, not assumed.
func startCountingServer(t *testing.T, cfg server.Config) (*server.Server, func() (net.Conn, error), *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	reg := server.NewRegistry()
	err := reg.RegisterIDL(`
Define cdouble(mode_in int n, mode_in double v[n], mode_out double w[n])
    Calls "go" cdouble(n, v, w);
`, map[string]server.Handler{
		"cdouble": func(ctx context.Context, args []idl.Value) error {
			count.Add(1)
			v := args[1].([]float64)
			w := args[2].([]float64)
			for i := range v {
				w[i] = 2 * v[i]
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	addr := l.Addr().String()
	return s, func() (net.Conn, error) { return net.Dial("tcp", addr) }, &count
}

func checkDoubled(t *testing.T, v, w []float64) {
	t.Helper()
	for i := range v {
		if w[i] != 2*v[i] {
			t.Fatalf("w[%d] = %g, want %g — stale or corrupt cached operand", i, w[i], 2*v[i])
		}
	}
}

const cacheTestN = 16 << 10 // 128 KiB of float64 per vector

// TestArgCacheWarmCall: the second call with the same operand ships
// digest markers instead of the vector, the server resolves it from
// cache, and the counters say so — end to end through the metaserver's
// polled Stats as well.
func TestArgCacheWarmCall(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		Hostname: "cachesrv", BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	v := bulkVec(cacheTestN)
	w := make([]float64, cacheTestN)
	rep1, err := c.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)

	clear(w)
	rep2, err := c.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if got := count.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}
	if rep2.BytesOut*20 > rep1.BytesOut {
		t.Fatalf("warm call shipped %d bytes vs cold %d; want ≥20× smaller", rep2.BytesOut, rep1.BytesOut)
	}
	hits, misses, _, _, used := s.CacheCounters()
	if hits < 1 || used == 0 {
		t.Fatalf("cache counters after warm call: hits=%d used=%d", hits, used)
	}
	_ = misses

	// The counters ride the Stats wire into the metaserver's snapshot.
	m := metaserver.New(metaserver.Config{})
	if err := m.AddServer("cachesrv", "x", 100, dial); err != nil {
		t.Fatal(err)
	}
	if m.PollOnce() != 1 {
		t.Fatal("poll failed")
	}
	snap := m.Servers()[0]
	if snap.Stats.CacheHits < 1 || snap.Stats.CacheBudget != 1<<20 {
		t.Fatalf("snapshot cache counters = %+v", snap.Stats)
	}
}

// cutConn severs the connection once cumulative writes cross limit
// while armed, simulating a WAN drop mid-way through a bulk upload.
type cutConn struct {
	net.Conn
	armed *atomic.Bool
	limit int64
	n     int64
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.armed.Load() && c.n+int64(len(p)) > c.limit {
		if c.armed.CompareAndSwap(true, false) {
			c.Conn.Close()
			return 0, syscall.ECONNRESET
		}
	}
	c.n += int64(len(p))
	return c.Conn.Write(p)
}

// TestCacheMissUploadCutUnpoisoned: the connection dies mid-way
// through the cache-miss bulk upload. The partially received operand
// must never enter the cache (reassembly did not complete), the
// client's retry must complete the call exactly once, and a follow-up
// warm call must compute from correct bytes.
func TestCacheMissUploadCutUnpoisoned(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	var armed atomic.Bool
	armed.Store(true)
	cutDial := func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &cutConn{Conn: conn, armed: &armed, limit: 32 << 10}, nil
	}
	c := newClient(t, cutDial)
	c.SetBulkThreshold(4096)

	v := bulkVec(cacheTestN)
	w := make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, v, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if armed.Load() {
		t.Fatal("vacuous: the upload never crossed the cut limit")
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("handler ran %d times across the cut retry, want exactly 1", got)
	}

	// Warm follow-up: whatever the cache holds for this digest is what
	// the server computes from. Wrong bytes here = poisoned cache.
	clear(w)
	rep, err := c.Call("cdouble", cacheTestN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if rep.BytesOut > 8*cacheTestN/4 {
		t.Fatalf("follow-up call shipped %d bytes; cache should be warm after the retried upload", rep.BytesOut)
	}
	if got := count.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}
	hits, _, _, _, _ := s.CacheCounters()
	if hits < 1 {
		t.Fatal("warm follow-up did not hit the cache")
	}
}

// TestCacheEvictionReupload: the server evicts behind the client's
// optimistic warm set. The digest-marker call answers CodeCacheMiss
// without executing; the client's retry re-queries, re-uploads, and
// the call completes — exactly once per logical call.
func TestCacheEvictionReupload(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		// Budget fits one vector (plus slack), never two: the second
		// operand evicts the first.
		BulkThreshold: 4096, CacheBudget: 160 << 10,
	})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)

	a := bulkVec(cacheTestN)
	b := make([]float64, cacheTestN)
	for i := range b {
		b[i] = float64(i%97) + 0.25
	}
	w := make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, a, w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("cdouble", cacheTestN, b, w); err != nil {
		t.Fatal(err)
	}
	// a is evicted; the client still believes it warm.
	clear(w)
	if _, err := c.Call("cdouble", cacheTestN, a, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, a, w)
	if got := count.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3 (the miss reply must not execute)", got)
	}
	_, misses, evictions, _, _ := s.CacheCounters()
	if evictions < 1 {
		t.Fatal("vacuous: budget pressure never evicted")
	}
	if misses < 1 {
		t.Fatal("stale warm set never produced a cache miss")
	}
}

// TestCacheDataHandles: with retention on, a call's large result stays
// server-resident; HandleFor + FetchData retrieve it by digest without
// re-running anything, and an unknown handle fails with a cache miss.
func TestCacheDataHandles(t *testing.T) {
	_, dial, count := startCountingServer(t, server.Config{
		BulkThreshold: 4096, CacheBudget: 1 << 20,
	})
	c := newClient(t, dial)
	c.SetBulkThreshold(4096)
	c.SetRetainResults(true)

	v := bulkVec(cacheTestN)
	w := make([]float64, cacheTestN)
	if _, err := c.Call("cdouble", cacheTestN, v, w); err != nil {
		t.Fatal(err)
	}
	h, ok := ninf.HandleFor(w)
	if !ok {
		t.Fatal("HandleFor refused a float64 slice")
	}
	var got []float64
	if err := c.FetchData(context.Background(), h, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w) {
		t.Fatalf("fetched %d elements, want %d", len(got), len(w))
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("fetched[%d] = %g, want %g", i, got[i], w[i])
		}
	}
	if count.Load() != 1 {
		t.Fatal("FetchData re-ran the routine")
	}

	// A digest the server never retained answers CodeCacheMiss.
	strange := make([]float64, cacheTestN)
	for i := range strange {
		strange[i] = -float64(i) * 3.5
	}
	hs, _ := ninf.HandleFor(strange)
	var dst []float64
	err := c.FetchData(context.Background(), hs, &dst)
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeCacheMiss {
		t.Fatalf("fetch of unknown handle: err = %v, want CodeCacheMiss", err)
	}
}

// TestCacheWithoutGrantSendsNoDigests: a session with a server that runs
// no cache is not granted one, so the client emits no digest framing —
// the same array goes out in full bytes on every call, never as a
// marker, however often it repeats.
func TestCacheWithoutGrantSendsNoDigests(t *testing.T) {
	v := bulkVec(cacheTestN)
	sPlain, dialPlain, _ := startCountingServer(t, server.Config{BulkThreshold: 4096})
	c := newClient(t, dialPlain)
	c.SetBulkThreshold(4096)
	w := make([]float64, cacheTestN)
	var sent []int64
	for range 3 {
		clear(w)
		rep, err := c.Call("cdouble", cacheTestN, v, w)
		if err != nil {
			t.Fatal(err)
		}
		checkDoubled(t, v, w)
		sent = append(sent, rep.BytesOut)
	}
	if !c.Multiplexed() {
		t.Fatal("client did not negotiate a session")
	}
	for _, n := range sent {
		if n != sent[0] || n < 8*cacheTestN {
			t.Fatalf("request sizes %v: want every call to carry the %d-byte array in full", sent, 8*cacheTestN)
		}
	}
	if h, m, e, p, u := sPlain.CacheCounters(); h|m|e|p|u != 0 {
		t.Fatalf("cacheless server has cache counters %d/%d/%d/%d/%d", h, m, e, p, u)
	}
}

// TestCacheTransactionAffinityChain: a transaction whose downstream
// call consumes an upstream result must (a) place the downstream call
// on the server holding that result — the affinity hint — and (b) bind
// the dependency via digest instead of re-uploading it, since
// transactions retain results.
func TestCacheTransactionAffinityChain(t *testing.T) {
	// Vectors above the client's default bulk threshold: transaction
	// clients run stock thresholds.
	const n = 64 << 10 // 512 KiB
	s1, dial1, count1 := startCountingServer(t, server.Config{
		Hostname: "srvA", BulkThreshold: 4096, CacheBudget: 4 << 20,
	})
	s2, dial2, count2 := startCountingServer(t, server.Config{
		Hostname: "srvB", BulkThreshold: 4096, CacheBudget: 4 << 20,
	})
	log := &wireLog{}
	m := metaserver.New(metaserver.Config{})
	if err := m.AddServer("srvA", "x", 100, recorded(dial1, log)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddServer("srvB", "x", 100, recorded(dial2, log)); err != nil {
		t.Fatal(err)
	}

	v := bulkVec(n)
	mid := make([]float64, n)
	out := make([]float64, n)
	tx := ninf.BeginTransaction(m)
	tx.Call("cdouble", n, v, mid)
	tx.Call("cdouble", n, mid, out)
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if out[i] != 4*v[i] {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], 4*v[i])
		}
	}
	// Wherever the upstream call landed, affinity must have pulled the
	// downstream call to the same server...
	c1, c2 := count1.Load(), count2.Load()
	if !(c1 == 2 && c2 == 0) && !(c1 == 0 && c2 == 2) {
		t.Fatalf("dependency chain split across servers: srvA ran %d, srvB ran %d", c1, c2)
	}
	// ...where the retained upstream result made `mid` warm, so the
	// downstream call chained the handle instead of re-uploading.
	h1, _, _, _, _ := s1.CacheCounters()
	h2, _, _, _, _ := s2.CacheCounters()
	if h1+h2 < 1 {
		t.Fatal("downstream call re-uploaded instead of chaining the retained result")
	}
	// The upstream call asked about v, beside its upload. The downstream
	// one had nothing to ask: its client asked for mid to be retained and
	// the call succeeded, so it knows the server holds it.
	if n, _ := log.sent(protocol.MsgCallDigest); n != 1 {
		t.Fatalf("%d CallDigest frames on the wire, want 1: the upstream call's and none for the chained one", n)
	}
}

// recorded makes dial's connections log their frames to log.
func recorded(dial func() (net.Conn, error), log *wireLog) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &recConn{Conn: conn, log: log}, nil
	}
}

// sent counts the client's frames of type t, and their payload bytes.
func (l *wireLog) sent(t protocol.MsgType) (frames, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.frames {
		if f.fromClient && f.t == t {
			frames++
			bytes += len(f.payload)
		}
	}
	return frames, bytes
}

// TestCacheMissForgetsOnlyItsDigests: a CodeCacheMiss voids what the
// client believed of the digests the refused call named, not of every
// digest it ever sent. Budget for two vectors; a, b, c go up, evicting
// a. Calling a again misses and uploads (evicting b); c, resident all
// along and never in doubt, must still go by marker with no question
// asked.
func TestCacheMissForgetsOnlyItsDigests(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{
		BulkThreshold: 4096, CacheBudget: 300 << 10,
	})
	log := &wireLog{}
	c := newClient(t, recorded(dial, log))
	c.SetBulkThreshold(4096)

	vecs := make([][]float64, 3)
	w := make([]float64, cacheTestN)
	for k := range vecs {
		vecs[k] = make([]float64, cacheTestN)
		for i := range vecs[k] {
			vecs[k][i] = float64(i%89) + float64(k)/4
		}
		if _, err := c.Call("cdouble", cacheTestN, vecs[k], w); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, evictions, _, _ := s.CacheCounters(); evictions != 1 {
		t.Fatalf("vacuous: %d evictions after three uploads into a two-vector budget, want 1", evictions)
	}
	a, cvec := vecs[0], vecs[2]
	if _, err := c.Call("cdouble", cacheTestN, a, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, a, w)
	if _, misses, _, _, _ := s.CacheCounters(); misses != 1 {
		t.Fatalf("%d cache misses, want 1: the client should have believed a warm", misses)
	}
	asked, _ := log.sent(protocol.MsgCallDigest)
	if asked != 4 {
		t.Fatalf("%d CallDigest frames so far, want 4: one per first upload and one for the re-upload", asked)
	}
	clear(w)
	rep, err := c.Call("cdouble", cacheTestN, cvec, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, cvec, w)
	if n, _ := log.sent(protocol.MsgCallDigest); n != asked {
		t.Fatalf("the call on c asked the server again (%d CallDigest frames, %d before it): the miss on a wiped c's warmth", n, asked)
	}
	if rep.BytesOut > 1024 {
		t.Fatalf("the call on c shipped %d bytes, want a digest marker", rep.BytesOut)
	}
	// Three uploads, the refused call (not run) and its retry, the call on c.
	if got := count.Load(); got != 5 {
		t.Fatalf("handler ran %d times, want 5", got)
	}
}

const specN = 64 << 10 // 512 KiB of float64: above the stock bulk threshold

// seedCache puts v in the server's cache through a client of its own.
func seedCache(t *testing.T, dial func() (net.Conn, error), v []float64) {
	t.Helper()
	c := newClient(t, dial)
	w := make([]float64, len(v))
	if _, err := c.Call("cdouble", len(v), v, w); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
}

// slowClient is a client behind a recorded 1 MB/s, 5 ms link: specN
// float64s take half a second to upload, a warmth answer 10 ms to
// come back.
func slowClient(t *testing.T, dial func() (net.Conn, error)) (*ninf.Client, *wireLog) {
	log := &wireLog{}
	link := emunet.NewLink("slow", 1e6)
	return newClient(t, emunet.Dialer(recorded(dial, log), emunet.Options{
		Up: []*emunet.Link{link}, Down: []*emunet.Link{link}, Latency: 5 * time.Millisecond,
	})), log
}

// TestCacheSpeculationAnswerWins: a second client uploads a vector the
// server already holds — which it cannot know — over a link so slow
// that the warmth answer is back with most of the stream unsent. The
// stream is retracted and the call goes by marker: the server sees a
// fraction of the vector, and the routine runs once.
func TestCacheSpeculationAnswerWins(t *testing.T) {
	s, dial, count := startCountingServer(t, server.Config{CacheBudget: 4 << 20})
	v := bulkVec(specN)
	seedCache(t, dial, v)

	c, log := slowClient(t, dial)
	w := make([]float64, specN)
	rep, err := c.Call("cdouble", specN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if got := count.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2: once to seed, once for the speculating call", got)
	}
	if rep.Retracted <= 0 || rep.Retracted >= 8*specN/2 {
		t.Fatalf("Retracted = %d, want a small part of the %d-byte vector", rep.Retracted, 8*specN)
	}
	if rep.BytesOut > 1024 {
		t.Fatalf("BytesOut = %d, want the completed request's: a digest marker call", rep.BytesOut)
	}
	aborts, _ := log.sent(protocol.MsgBulkAbort)
	_, streamed := log.sent(protocol.MsgBulkChunk)
	if aborts != 1 || streamed >= 8*specN/2 {
		t.Fatalf("%d aborts, %d bytes of chunks on the wire; want 1 and well under %d", aborts, streamed, 8*specN)
	}
	if hits, _, _, _, _ := s.CacheCounters(); hits < 1 {
		t.Fatal("the resent call did not resolve its marker from the cache")
	}
}

// heldRead delays the first read after it is armed: the server's next
// frame reaches the client that much late, and nothing else does.
type heldRead struct {
	net.Conn
	armed *atomic.Bool
}

func (c *heldRead) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.armed.CompareAndSwap(true, false) {
		time.Sleep(200 * time.Millisecond)
	}
	return n, err
}

// TestCacheSpeculationStreamWins: the same, with the answer held back
// until long after the whole stream is written. The writer, not the
// answer, decides — the stream is the call, nothing is retracted, and
// the routine still runs once.
func TestCacheSpeculationStreamWins(t *testing.T) {
	_, dial, count := startCountingServer(t, server.Config{CacheBudget: 4 << 20})
	v := bulkVec(specN)
	seedCache(t, dial, v)

	log := &wireLog{}
	var armed atomic.Bool
	c := newClient(t, recorded(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &heldRead{Conn: conn, armed: &armed}, nil
	}, log))
	w := make([]float64, specN)
	if _, err := c.Call("cdouble", 1, v[:1], w[:1]); err != nil { // session up, interface fetched
		t.Fatal(err)
	}
	armed.Store(true)
	rep, err := c.Call("cdouble", specN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if got := count.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3: the seed, the small call, and once for the speculating call", got)
	}
	if rep.Retracted != 0 || rep.BytesOut < 8*specN {
		t.Fatalf("Retracted = %d, BytesOut = %d; want 0 and the whole vector", rep.Retracted, rep.BytesOut)
	}
	if asked, _ := log.sent(protocol.MsgCallDigest); asked != 1 || armed.Load() {
		t.Fatalf("%d CallDigest frames (answer held: %v), want 1", asked, !armed.Load())
	}
	if aborts, _ := log.sent(protocol.MsgBulkAbort); aborts != 0 {
		t.Fatalf("%d abort frames after a stream written whole", aborts)
	}
}

// lyingHello sets HelloFlagArgCache in every hello reply it reads: the
// client believes in a cache the server does not run, which is how a
// server looks that lost its cache while the session stayed up.
type lyingHello struct {
	net.Conn
	hello bool // the last read was a MsgHelloOK header; its payload is next
}

func (c *lyingHello) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	be := binary.BigEndian
	switch {
	case c.hello && n >= 8:
		be.PutUint32(p[4:], be.Uint32(p[4:])|protocol.HelloFlagArgCache)
		c.hello = false
	case n == 16 && be.Uint32(p[4:]) == protocol.Version && protocol.MsgType(be.Uint32(p[8:])) == protocol.MsgHelloOK:
		c.hello = true
	}
	return n, err
}

// TestCacheQueryRefusedFinishesPlain: the server answers the warmth
// query with an error. The upload riding beside it names no digest the
// server would have to resolve, so it completes as the plain call it
// is byte for byte, and teaches the client nothing: the next
// call asks again rather than send a marker nobody can read.
func TestCacheQueryRefusedFinishesPlain(t *testing.T) {
	_, dial, count := startCountingServer(t, server.Config{})
	plain := newClient(t, dial)
	log := &wireLog{}
	c := newClient(t, recorded(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &lyingHello{Conn: conn}, nil
	}, log))

	v := bulkVec(specN)
	w := make([]float64, specN)
	want, err := plain.Call("cdouble", specN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		clear(w)
		rep, err := c.Call("cdouble", specN, v, w)
		if err != nil {
			t.Fatalf("call %d: %v", round, err)
		}
		checkDoubled(t, v, w)
		if rep.BytesOut != want.BytesOut || rep.Retracted != 0 {
			t.Fatalf("call %d: BytesOut %d, Retracted %d; want the plain call's %d and 0", round, rep.BytesOut, rep.Retracted, want.BytesOut)
		}
		if asked, _ := log.sent(protocol.MsgCallDigest); asked != round {
			t.Fatalf("call %d: %d CallDigest frames; want one per call (none: the hello was not tampered with)", round, asked)
		}
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3", got)
	}
}

// TestCacheSpeculationSubmitKeepsKey: Submit rides the same path. The
// retracted stream and the marker request that replaces it carry the
// one idempotency key of the submission, so whichever the server acted
// on, a transport retry of either dedupes against it.
func TestCacheSpeculationSubmitKeepsKey(t *testing.T) {
	_, dial, count := startCountingServer(t, server.Config{CacheBudget: 4 << 20})
	v := bulkVec(specN)
	seedCache(t, dial, v)

	c, log := slowClient(t, dial)
	w := make([]float64, specN)
	job, err := c.Submit("cdouble", specN, v, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Fetch(true); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, v, w)
	if got := count.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2: once to seed, once for the submission", got)
	}
	var streamed, resent []byte
	log.mu.Lock()
	for _, f := range log.frames {
		switch {
		case !f.fromClient:
		case f.t == protocol.MsgBulkChunk && streamed == nil:
			streamed = f.payload[8:16] // past the chunk prologue: the head's first word
		case f.t == protocol.MsgSubmit:
			resent = f.payload[:8]
		}
	}
	log.mu.Unlock()
	if aborts, _ := log.sent(protocol.MsgBulkAbort); aborts != 1 || streamed == nil || resent == nil {
		t.Fatalf("%d aborts, streamed key %x, resent key %x; want a retracted stream and a Submit frame", aborts, streamed, resent)
	}
	if !bytes.Equal(streamed, resent) || bytes.Equal(resent, make([]byte, 8)) {
		t.Fatalf("idempotency key %x on the retracted stream, %x on the resend", streamed, resent)
	}
}
