package metaserver

// Golden wire capture of the metaserver's traffic. One sequential
// scenario drives a RemoteScheduler against a daemon (a liveness ping,
// a placement, a refused placement, an outcome report), both replicas'
// anti-entropy exchanges, one monitor poll of a real server, and the
// three protocol violations the daemon answers and hangs up on. Every
// connection goes through a recording net.Conn and the frames both ways
// are compared with testdata/wire/meta.golden: it is what "no wire byte
// changed" means for the metaserver. Regenerate with
//
//	go test -run WireGolden ./internal/metaserver -update
//
// only when a wire change is intended.
//
// What is pinned: every frame's type and payload, except the replies
// that carry the server's timestamps (StatsOK, TraceOK), which are
// pinned by length. Both replicas read a clock stopped at the Unix
// epoch, so the registration times inside gossip records are zero.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ninf"
	"ninf/internal/protocol"
	"ninf/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire/meta.golden from this run")

// metaLog is the capture shared by every recorded connection.
type metaLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *metaLog) add(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// metaRecConn records the frames crossing the initiating end of a
// connection, re-framed from each direction's byte stream.
type metaRecConn struct {
	net.Conn
	log     *metaLog
	out, in []byte
}

func (c *metaRecConn) Write(p []byte) (int, error) {
	c.out = c.parse(append(c.out, p...), "C")
	return c.Conn.Write(p)
}

func (c *metaRecConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in = c.parse(append(c.in, p[:n]...), "S")
	return n, err
}

// parse logs every complete frame in buf and returns the unconsumed
// tail. A header announcing more than the daemon accepts is logged on
// its own: the daemon answers it without reading a payload.
func (c *metaRecConn) parse(buf []byte, dir string) []byte {
	for len(buf) >= 16 {
		t := protocol.MsgType(binary.BigEndian.Uint32(buf[8:]))
		n := int(binary.BigEndian.Uint32(buf[12:]))
		if n > daemonMaxPayload {
			c.log.add("%s %v len=%d header-only", dir, t, n)
			return nil
		}
		if len(buf) < 16+n {
			break
		}
		c.log.add("%s %v %s", dir, t, renderPayload(t, buf[16:16+n]))
		buf = buf[16+n:]
	}
	return buf
}

// renderPayload formats one frame's payload for the capture.
func renderPayload(typ protocol.MsgType, p []byte) string {
	switch {
	case typ == protocol.MsgStatsOK, typ == protocol.MsgTraceOK:
		return fmt.Sprintf("len=%d", len(p))
	case len(p) == 0:
		return "-"
	case len(p) > 256:
		sum := sha256.Sum256(p)
		return fmt.Sprintf("len=%d sha256=%x", len(p), sum[:8])
	}
	return hex.EncodeToString(p)
}

// recDial wraps a dialer so each connection it opens is recorded.
func recDial(log *metaLog, dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &metaRecConn{Conn: conn, log: log}, nil
	}
}

func TestMetaWireGolden(t *testing.T) {
	_, _, serverDial := startServer(t, server.Config{Hostname: "golden"})
	log := &metaLog{}
	section := func(name string) { log.add("== %s ==", name) }

	epoch := func() time.Time { return time.Unix(0, 0) }
	a := newMetaserver(Config{Origin: "meta-a"}, epoch)
	b := newMetaserver(Config{Origin: "meta-b"}, epoch)
	if err := a.AddServer("s0", "s0.golden:7000", 100, recDial(log, serverDial)); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer("b", recDial(log, peerDial(b))); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", recDial(log, peerDial(a))); err != nil {
		t.Fatal(err)
	}

	// The first dial fails, so the replica must answer a ping before it
	// gets the next request.
	var dials int
	rs := &RemoteScheduler{Origin: "golden-client"}
	rs.AddMeta("a", recDial(log, func() (net.Conn, error) {
		if dials++; dials == 1 {
			return nil, errors.New("refused")
		}
		return peerDial(a)()
	}))
	t.Cleanup(func() { rs.Close() })

	section("scheduler")
	if _, err := rs.Place(ninf.SchedRequest{Routine: "dmmul"}); err == nil {
		t.Fatal("placement through a refused dial succeeded")
	}
	pl, err := rs.Place(ninf.SchedRequest{Routine: "dmmul", InBytes: 4096, OutBytes: 2048, Ops: 1e6, Affinity: "s0"})
	if err != nil || pl.Name != "s0" || pl.Degraded {
		t.Fatalf("place = %+v, %v", pl, err)
	}
	if _, err = rs.Place(ninf.SchedRequest{Routine: "dmmul", Exclude: []string{"s0"}}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("refused place: %v", err)
	}
	rs.Observe("s0", 6144, 3*time.Millisecond, nil)

	section("gossip")
	if n := a.GossipOnce(); n != 1 {
		t.Fatalf("a gossiped with %d peers", n)
	}
	if n := b.GossipOnce(); n != 1 {
		t.Fatalf("b gossiped with %d peers", n)
	}

	section("monitor")
	if n := a.PollOnce(); n != 1 {
		t.Fatalf("poll reached %d servers", n)
	}

	section("violations")
	var bad bytes.Buffer
	protocol.WriteFrame(&bad, protocol.MsgSchedule, []byte{0, 0, 0, 9, 'x'})
	hdr := make([]byte, 16)
	binary.BigEndian.PutUint32(hdr[0:], protocol.Magic)
	binary.BigEndian.PutUint32(hdr[4:], protocol.Version)
	binary.BigEndian.PutUint32(hdr[8:], uint32(protocol.MsgSchedule))
	binary.BigEndian.PutUint32(hdr[12:], daemonMaxPayload+1)
	var unknown bytes.Buffer
	protocol.WriteFrame(&unknown, protocol.MsgType(99), nil)
	for _, frame := range [][]byte{bad.Bytes(), hdr, unknown.Bytes()} {
		conn, _ := recDial(log, peerDial(a))()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("reading the daemon's answer: %v", err)
		}
		conn.Close()
	}

	got := strings.Join(log.lines, "\n") + "\n"
	path := filepath.Join("testdata", "wire", "meta.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("wire capture differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
