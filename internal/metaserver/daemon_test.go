package metaserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

// metaDaemon runs a metaserver's daemon loop on a real listener and
// can be killed hard: listener closed and every live connection
// severed, the way a crashed process disappears.
type metaDaemon struct {
	m    *Metaserver
	addr string
	l    net.Listener

	mu    sync.Mutex
	conns map[net.Conn]bool
}

func startMetaDaemon(t *testing.T, m *Metaserver) *metaDaemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &metaDaemon{m: m, addr: l.Addr().String(), l: l, conns: make(map[net.Conn]bool)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			d.mu.Lock()
			d.conns[c] = true
			d.mu.Unlock()
			go func() {
				defer func() {
					c.Close()
					d.mu.Lock()
					delete(d.conns, c)
					d.mu.Unlock()
				}()
				m.ServeConn(c)
			}()
		}
	}()
	t.Cleanup(d.kill)
	return d
}

func (d *metaDaemon) kill() {
	d.l.Close()
	d.mu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectErrorThenClose asserts the daemon answers one MsgError with
// the given code and then closes the connection.
func expectErrorThenClose(t *testing.T, conn net.Conn, code uint32) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, p, err := protocol.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if typ != protocol.MsgError {
		t.Fatalf("got %v, want MsgError", typ)
	}
	er, err := protocol.DecodeErrorReply(p)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != code {
		t.Errorf("error code = %d, want %d", er.Code, code)
	}
	if _, _, err := protocol.ReadFrame(conn, 0); !errors.Is(err, io.EOF) {
		t.Errorf("connection still open after protocol violation: %v", err)
	}
}

func TestDaemonRejectsUnknownType(t *testing.T) {
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	if err := protocol.WriteFrame(conn, protocol.MsgType(200), nil); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, protocol.CodeInternal)
}

func TestDaemonClosesOnMalformedSchedule(t *testing.T) {
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	// A length-prefixed string claiming 4 GB: the decoder must error,
	// the daemon must answer MsgError and hang up, and nothing may
	// panic.
	if err := protocol.WriteFrame(conn, protocol.MsgSchedule, []byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, protocol.CodeBadArguments)
}

// TestDaemonRefusesOversizedScheduleRequest: a request excluding more
// servers than the decoder's bound is malformed, answered and hung up
// on, not read as a shorter list with the next name as its Affinity.
func TestDaemonRefusesOversizedScheduleRequest(t *testing.T) {
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	req := protocol.ScheduleRequest{Routine: "ep"}
	for i := 0; i <= 1024; i++ {
		req.Exclude = append(req.Exclude, fmt.Sprintf("srv%d", i))
	}
	if err := protocol.WriteFrame(conn, protocol.MsgSchedule, req.Encode()); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, protocol.CodeBadArguments)
}

func TestDaemonClosesOnMalformedObserve(t *testing.T) {
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	if err := protocol.WriteFrame(conn, protocol.MsgObserve, []byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, protocol.CodeBadArguments)
}

func TestDaemonRejectsOversizedFrame(t *testing.T) {
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	// Hand-craft a header announcing a payload over the daemon's
	// limit — a hostile registration-sized blob. The daemon must
	// refuse from the header alone, without allocating or reading the
	// body.
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:], protocol.Magic)
	binary.BigEndian.PutUint32(hdr[4:], protocol.Version)
	binary.BigEndian.PutUint32(hdr[8:], uint32(protocol.MsgSchedule))
	binary.BigEndian.PutUint32(hdr[12:], uint32(daemonMaxPayload+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectErrorThenClose(t, conn, protocol.CodeBadArguments)
}

func TestDaemonClosesOnTruncatedFrame(t *testing.T) {
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	// Header promises 64 payload bytes; the peer sends 8 and
	// half-closes. The daemon's payload read must fail cleanly and
	// close — no reply owed to a peer that quit mid-frame.
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:], protocol.Magic)
	binary.BigEndian.PutUint32(hdr[4:], protocol.Version)
	binary.BigEndian.PutUint32(hdr[8:], uint32(protocol.MsgSchedule))
	binary.BigEndian.PutUint32(hdr[12:], 64)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := protocol.ReadFrame(conn, 0); !errors.Is(err, io.EOF) {
		t.Errorf("expected clean close after truncated frame, got %v", err)
	}
}

func TestDaemonKeepsConnOnPlacementRefusal(t *testing.T) {
	// An application-level refusal (no eligible server) is not a
	// protocol violation: the daemon answers MsgError and the
	// connection stays usable.
	d := startMetaDaemon(t, New(Config{}))
	conn := dialT(t, d.addr)
	req := protocol.ScheduleRequest{Routine: "x"}
	if err := protocol.WriteFrame(conn, protocol.MsgSchedule, req.Encode()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, _, err := protocol.ReadFrame(conn, 0)
	if err != nil || typ != protocol.MsgError {
		t.Fatalf("got %v, %v; want MsgError", typ, err)
	}
	if err := protocol.WriteFrame(conn, protocol.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, err = protocol.ReadFrame(conn, 0)
	if err != nil || typ != protocol.MsgPong {
		t.Errorf("connection dead after placement refusal: %v, %v", typ, err)
	}
}

func TestDaemonSeversStalledConn(t *testing.T) {
	// The read-deadline regression test: a client whose first write
	// black-holes (faultnet stall, the silent-peer failure mode)
	// leaves the daemon reading a connection that will never produce a
	// frame. Before per-connection read deadlines the handler
	// goroutine parked forever; now it must exit within
	// connReadTimeout.
	old := connReadTimeout
	connReadTimeout = 100 * time.Millisecond
	t.Cleanup(func() { connReadTimeout = old })
	m := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		m.ServeConn(conn)
	}()

	in := faultnet.New(faultnet.Plan{
		Seed:          1,
		StallProb:     1,
		StallDuration: 10 * time.Second, // far beyond the deadline: only Close wakes it
	})
	addr := l.Addr().String()
	dial := in.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // wakes the stalled writer below
	var wrote sync.WaitGroup
	wrote.Add(1)
	go func() {
		defer wrote.Done()
		protocol.WriteFrame(conn, protocol.MsgPing, nil) // stalls; fails on Close
	}()

	select {
	case <-done:
		// Daemon severed the silent connection.
	case <-time.After(3 * time.Second):
		t.Fatal("daemon handler still reading a stalled connection after 3s")
	}
	if got := in.Counters().Stalls; got == 0 {
		t.Fatal("no stall injected; test asserts nothing")
	}
	conn.Close()
	wrote.Wait()
}

func TestRemoteSchedulerFailsOver(t *testing.T) {
	_, addr, sdial := startServer(t, server.Config{Hostname: "s0"})
	ma := New(Config{Origin: "meta-a"})
	mb := New(Config{Origin: "meta-b"})
	for _, m := range []*Metaserver{ma, mb} {
		if err := m.AddServer("s0", addr, 100, sdial); err != nil {
			t.Fatal(err)
		}
	}
	da := startMetaDaemon(t, ma)
	db := startMetaDaemon(t, mb)

	rs := NewRemoteScheduler(da.addr, db.addr)
	t.Cleanup(func() { rs.Close() })
	pl, err := rs.Place(ninf.SchedRequest{Routine: "x"})
	if err != nil || pl.Name != "s0" {
		t.Fatalf("initial place: %+v, %v", pl, err)
	}
	if pl.Degraded {
		t.Error("healthy placement marked degraded")
	}

	// Hard-kill the primary: placements must fail over to the second
	// replica, transparently.
	da.kill()
	pl, err = rs.Place(ninf.SchedRequest{Routine: "x"})
	if err != nil || pl.Name != "s0" {
		t.Fatalf("place after primary kill: %+v, %v", pl, err)
	}
	if pl.Degraded {
		t.Error("failover placement marked degraded (replica b was reachable)")
	}
	st := rs.Status()
	if len(st.Metas) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.Metas[0].Fails == 0 || st.Metas[0].AvoidedUntil.IsZero() {
		t.Errorf("dead primary not backed off: %+v", st.Metas[0])
	}
	if !st.Metas[1].Current || st.Metas[1].Fails != 0 {
		t.Errorf("replica b not current after failover: %+v", st.Metas[1])
	}

	// Outcome reports keep flowing to the survivor, stamped for
	// idempotence.
	rs.Observe("s0", 1024, time.Millisecond, nil)
	if got := mb.ObservationCount("s0"); got != 1 {
		t.Errorf("survivor ObservationCount = %d, want 1", got)
	}
}

func TestRemoteSchedulerDegradedPlacement(t *testing.T) {
	_, addr, sdial := startServer(t, server.Config{Hostname: "s0"})
	m := New(Config{})
	if err := m.AddServer("s0", addr, 100, sdial); err != nil {
		t.Fatal(err)
	}
	d := startMetaDaemon(t, m)
	rs := NewRemoteScheduler(d.addr)
	t.Cleanup(func() { rs.Close() })

	if _, err := rs.Place(ninf.SchedRequest{Routine: "x"}); err != nil {
		t.Fatal(err)
	}
	d.kill()

	pl, err := rs.Place(ninf.SchedRequest{Routine: "x"})
	if err != nil {
		t.Fatalf("no degraded placement with a warm cache: %v", err)
	}
	if !pl.Degraded || pl.Name != "s0" {
		t.Fatalf("degraded placement = %+v", pl)
	}
	// The cached dialer must reach the real server.
	conn, err := pl.Dial()
	if err != nil {
		t.Fatalf("degraded placement dial: %v", err)
	}
	conn.Close()
	// Exclusions still apply in degraded mode — the transaction layer
	// relies on them for its failover loop.
	if _, err := rs.Place(ninf.SchedRequest{Routine: "x", Exclude: []string{"s0"}}); err == nil {
		t.Error("excluded server handed out in degraded mode")
	}
	st := rs.Status()
	if st.DegradedPlacements != 1 {
		t.Errorf("DegradedPlacements = %d, want 1", st.DegradedPlacements)
	}
}

func TestRemoteSchedulerCacheTTLExpires(t *testing.T) {
	_, addr, sdial := startServer(t, server.Config{})
	m := New(Config{})
	if err := m.AddServer("s0", addr, 100, sdial); err != nil {
		t.Fatal(err)
	}
	d := startMetaDaemon(t, m)
	defer func(ttl time.Duration) { degradedCacheTTL = ttl }(degradedCacheTTL)
	degradedCacheTTL = 50 * time.Millisecond
	rs := NewRemoteScheduler(d.addr)
	t.Cleanup(func() { rs.Close() })
	if _, err := rs.Place(ninf.SchedRequest{Routine: "x"}); err != nil {
		t.Fatal(err)
	}
	d.kill()
	time.Sleep(80 * time.Millisecond)
	if _, err := rs.Place(ninf.SchedRequest{Routine: "x"}); err == nil {
		t.Error("stale cache entry served past its TTL")
	}
}

func TestStalledReplicaFailsOverViaDeadline(t *testing.T) {
	// A replica that accepts connections and then black-holes (a
	// partition that drops packets instead of resetting) must fail over
	// within the exchange deadline, not after the OS TCP timeout —
	// before per-exchange deadlines, every Place in the process stalled
	// for minutes on it.
	old := metaExchangeTimeout
	metaExchangeTimeout = 100 * time.Millisecond
	t.Cleanup(func() { metaExchangeTimeout = old })

	bh, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bh.Close() })
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := bh.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // keep open, never answer
			mu.Unlock()
		}
	}()

	_, addr, sdial := startServer(t, server.Config{Hostname: "s0"})
	m := New(Config{})
	if err := m.AddServer("s0", addr, 100, sdial); err != nil {
		t.Fatal(err)
	}
	d := startMetaDaemon(t, m)

	rs := NewRemoteScheduler(bh.Addr().String(), d.addr)
	t.Cleanup(func() { rs.Close() })
	start := time.Now()
	pl, err := rs.Place(ninf.SchedRequest{Routine: "x"})
	elapsed := time.Since(start)
	if err != nil || pl.Name != "s0" {
		t.Fatalf("place through stalled primary: %+v, %v", pl, err)
	}
	if pl.Degraded {
		t.Error("failover placement marked degraded (replica b was reachable)")
	}
	if elapsed > 3*time.Second {
		t.Errorf("failover took %v; the deadline did not bite", elapsed)
	}
}

func TestScheduleNotReplayedAfterDeliveredWrite(t *testing.T) {
	// A MsgSchedule delivered to the daemon right before the connection
	// dies may already have executed (bumping placement bookkeeping
	// that only one Observe will balance). The client must not
	// automatically replay it on a fresh dial to the same replica —
	// only idempotent frames get that retry.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var scheduled int32
	serve := func(conn net.Conn, answerFirst bool) {
		defer conn.Close()
		answered := false
		for {
			typ, _, err := protocol.ReadFrame(conn, daemonMaxPayload)
			if err != nil {
				return
			}
			if typ != protocol.MsgSchedule {
				continue
			}
			if atomic.AddInt32(&scheduled, 1); answerFirst && !answered {
				answered = true
				reply := protocol.ScheduleReply{Name: "s0", Addr: "127.0.0.1:1"}
				if protocol.WriteFrame(conn, protocol.MsgScheduleOK, reply.Encode()) != nil {
					return
				}
				continue
			}
			// Request accepted, then the replica dies without replying.
			return
		}
	}
	go func() {
		first := true
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go serve(conn, first)
			first = false
		}
	}()

	rs := NewRemoteScheduler(l.Addr().String())
	t.Cleanup(func() { rs.Close() })
	if _, err := rs.Place(ninf.SchedRequest{Routine: "x"}); err != nil {
		t.Fatalf("first place: %v", err)
	}
	// Second place: the pooled conn accepts the write, then dies. The
	// cache is warm, so the non-replayed attempt degrades instead of
	// failing.
	pl, err := rs.Place(ninf.SchedRequest{Routine: "x"})
	if err != nil {
		t.Fatalf("second place: %v", err)
	}
	if !pl.Degraded {
		t.Error("placement after replica death not marked degraded")
	}
	if got := atomic.LoadInt32(&scheduled); got != 2 {
		t.Errorf("daemon saw %d MsgSchedule frames, want 2 (no replay of a possibly-executed request)", got)
	}
}

func TestMetaBackoffBounds(t *testing.T) {
	// The window doubles from 50ms to a 2s ceiling and must stay
	// pinned there no matter how long an outage runs — a large fails
	// count once overflowed the shift and panicked rand.Int63n.
	for _, fails := range []int{-1, 0, 1, 3, 6, 7, 40, 64, 100, 1 << 20} {
		d := metaBackoff(fails)
		if d < 25*time.Millisecond || d >= 2*time.Second {
			t.Errorf("metaBackoff(%d) = %v, outside [25ms, 2s)", fails, d)
		}
	}
	for i := 0; i < 100; i++ {
		if d := metaBackoff(1); d < 25*time.Millisecond || d >= 50*time.Millisecond {
			t.Errorf("metaBackoff(1) = %v, want [25ms, 50ms)", d)
		}
	}
}
