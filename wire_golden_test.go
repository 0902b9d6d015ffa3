package ninf_test

// Golden wire captures. One sequential scenario touching every client
// verb runs against four peers (lockstep client, legacy server, default
// mux, mux with the argument cache granted) through a recording
// net.Conn, and the frames both ways are compared with
// testdata/wire/*.golden.
// The captures were taken before the client's exchange paths and the
// server's verb switches were merged; they are what "no wire byte
// changed" means for any later transport refactor. Regenerate with
//
//	go test -run WireGolden -update .
//
// only when a wire change is intended.
//
// What is pinned: client→server frames as (type, payload), server→
// client frames as (type, payload length). What is not: framing version
// and mux sequence numbers (a verb may move between a lockstep
// connection and the session), which connection carries a frame, the
// random submit key, the absolute call deadline, reply contents (they
// hold timestamps), and how many times a running job is polled.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire/*.golden from this run")

// wireFrame is one captured frame.
type wireFrame struct {
	fromClient bool
	hello      bool // part of a version negotiation
	t          protocol.MsgType
	payload    []byte
}

// wireLog is the capture shared by every connection of one client. The
// scenario is sequential, so arrival order is deterministic.
type wireLog struct {
	mu     sync.Mutex
	frames []wireFrame
}

// recConn records the frames crossing a client connection. Each
// direction is re-framed from the byte stream, whatever the size of the
// individual reads and writes.
type recConn struct {
	net.Conn
	log      *wireLog
	out, in  []byte
	outHello bool // a Hello is awaiting its reply on this connection
}

func (c *recConn) Write(p []byte) (int, error) {
	c.out = c.parse(append(c.out, p...), true)
	return c.Conn.Write(p)
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in = c.parse(append(c.in, p[:n]...), false)
	return n, err
}

// parse appends every complete frame in buf to the log and returns the
// unconsumed tail. Lockstep and mux framing share the 16-byte header;
// the second word tells them apart (see protocol.StampMux).
func (c *recConn) parse(buf []byte, fromClient bool) []byte {
	for len(buf) >= 16 {
		n := int(binary.BigEndian.Uint32(buf[12:]))
		if len(buf) < 16+n {
			break
		}
		t := protocol.MsgType(binary.BigEndian.Uint32(buf[8:]))
		if w := binary.BigEndian.Uint32(buf[4:]); w != protocol.Version {
			t = protocol.MsgType(w & 0xffff)
		}
		f := wireFrame{fromClient: fromClient, t: t, payload: append([]byte(nil), buf[16:16+n]...)}
		c.log.mu.Lock()
		if fromClient {
			c.outHello = t == protocol.MsgHello
			f.hello = c.outHello
		} else if c.outHello {
			f.hello, c.outHello = true, false
		}
		c.log.frames = append(c.log.frames, f)
		c.log.mu.Unlock()
		buf = buf[16+n:]
	}
	return buf
}

// settleStatuses puts each DigestStatus where it is certain to have
// arrived by: just ahead of the first other server frame after the
// CallDigest it answers. The query travels beside an upload and the two
// are served concurrently, so the answer may land anywhere among the
// upload's frames or its reply's; the capture must not depend on where.
func settleStatuses(in []wireFrame) []wireFrame {
	var out, statuses []wireFrame
	for _, f := range in {
		if f.t == protocol.MsgDigestStatus {
			statuses = append(statuses, f)
		}
	}
	owed := 0
	for _, f := range in {
		switch {
		case f.t == protocol.MsgDigestStatus:
			continue
		case f.fromClient && f.t == protocol.MsgCallDigest:
			owed++
		case !f.fromClient:
			n := min(owed, len(statuses))
			out, statuses, owed = append(out, statuses[:n]...), statuses[n:], 0
		}
		out = append(out, f)
	}
	return append(out, statuses...)
}

// render formats the capture: the negotiation on its own, then every
// other frame in order (DigestStatus frames as settleStatuses has them).
func (l *wireLog) render() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	frames := settleStatuses(l.frames)
	var hello, rest strings.Builder
	for i := 0; i < len(frames); i++ {
		f := frames[i]
		w := &rest
		if f.hello {
			w = &hello
		}
		// A callback is the server's request: pinned like the client's.
		dir := "C"
		if !f.fromClient {
			if f.t != protocol.MsgCallback {
				fmt.Fprintf(w, "S %v len=%d\n", f.t, len(f.payload))
				continue
			}
			dir = "S"
		}
		p := append([]byte(nil), f.payload...)
		switch {
		case f.t == protocol.MsgFetch && i+1 < len(frames) && notReady(frames[i+1]):
			i++ // a poll that found the job still running
			continue
		case f.t == protocol.MsgSubmit && len(p) >= 8:
			copy(p, "KKKKKKKK")
		}
		// A request ends with its deadline and retain words.
		if n := len(p); (f.t == protocol.MsgCall || f.t == protocol.MsgSubmit) && n >= 12 && !bytes.Equal(p[n-12:n-4], make([]byte, 8)) {
			copy(p[n-12:], "DDDDDDDD")
		}
		switch {
		case len(p) == 0:
			fmt.Fprintf(w, "%s %v -\n", dir, f.t)
		case len(p) > 256:
			sum := sha256.Sum256(p)
			fmt.Fprintf(w, "%s %v len=%d sha256=%x\n", dir, f.t, len(p), sum[:8])
		default:
			fmt.Fprintf(w, "%s %v %s\n", dir, f.t, hex.EncodeToString(p))
		}
	}
	return "== hello ==\n" + hello.String() + "== frames ==\n" + rest.String()
}

func notReady(f wireFrame) bool {
	if f.fromClient || f.t != protocol.MsgError {
		return false
	}
	er, err := protocol.DecodeErrorReply(f.payload)
	return err == nil && er.Code == protocol.CodeNotReady
}

func TestWireGolden(t *testing.T) {
	peers := []struct {
		name   string
		cfg    server.Config
		noMux  bool
		expect bool // client ends up multiplexed
	}{
		{name: "lockstep", noMux: true},
		{name: "legacy-server", cfg: server.Config{DisableMux: true}},
		{name: "mux", expect: true},
		{name: "mux-cache", cfg: server.Config{CacheBudget: 1 << 20}, expect: true},
	}
	for _, p := range peers {
		t.Run(p.name, func(t *testing.T) {
			cfg := p.cfg
			cfg.Hostname = "golden"
			cfg.BulkThreshold = 1024
			srv, dial := startServer(t, cfg)
			log := &wireLog{}
			c := newClient(t, func() (net.Conn, error) {
				conn, err := dial()
				if err != nil {
					return nil, err
				}
				return &recConn{Conn: conn, log: log}, nil
			})
			if p.noMux {
				c.SetMultiplexing(false)
			}
			c.SetBulkThreshold(1024)
			wireScenario(t, c, srv)
			if c.Multiplexed() != p.expect {
				t.Fatalf("Multiplexed() = %v, want %v", c.Multiplexed(), p.expect)
			}
			checkGolden(t, p.name, log.render())
		})
	}
}

// checkGolden compares a rendered capture with testdata/wire/name.golden,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name+".golden")
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

// TestWireGoldenCallback pins client callbacks inside a blocking call:
// the server's MsgCallback requests, the client's CallbackOK answers,
// and the MsgError it sends back for a callback it has not registered.
func TestWireGoldenCallback(t *testing.T) {
	dial := startCallbackServer(t)
	log := &wireLog{}
	c := newClient(t, func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return &recConn{Conn: conn, log: log}, nil
	})
	c.RegisterCallback("progress", func([]byte) ([]byte, error) { return []byte("go"), nil })
	var result float64
	if _, err := c.Call("steered", 2, &result); err != nil || result != 2 {
		t.Fatalf("steered = %v, %v", result, err)
	}
	if _, err := c.Call("puller", 1, &result); err == nil || !strings.Contains(err.Error(), "no client callback") {
		t.Fatalf("puller without its callback: %v", err)
	}
	checkGolden(t, "callback", log.render())
}

// wireScenario issues every client verb once, in a fixed order.
func wireScenario(t *testing.T, c *ninf.Client, srv *server.Server) {
	t.Helper()
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	_, err := c.Interface("echo")
	check("interface", err)
	check("ping", c.Ping())
	_, err = c.List()
	check("list", err)

	in, out := []float64{42}, make([]float64, 1)
	_, err = c.Call("echo", 1, in, out)
	check("call echo(8 B)", err)
	if out[0] != 42 {
		t.Fatalf("echo returned %v", out)
	}
	if _, err = c.Call("nosuch", 1); err == nil {
		t.Fatal("call of an unknown routine succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	_, err = c.CallContext(ctx, "echo", 1, in, out)
	cancel()
	check("call with deadline", err)

	// Above the (lowered) bulk threshold, twice: chunked where the peer
	// allows it, and by digest the second time where it caches.
	big, bigOut := make([]float64, 256), make([]float64, 256)
	for i := range big {
		big[i] = float64(i)
	}
	for i := 0; i < 2; i++ {
		_, err = c.Call("echo", len(big), big, bigOut)
		check("call echo(2 KiB)", err)
		if bigOut[255] != 255 {
			t.Fatalf("bulk echo returned %v", bigOut[255])
		}
	}

	// Two-phase: a small request whose 2 KiB result comes back chunked
	// on bulk-capable sessions. Waiting for the server to go idle first
	// keeps the poll count at one in practice; extra polls are elided
	// from the capture either way.
	hist := make([]float64, 256)
	job, err := c.Submit("dos", 4, len(hist), hist)
	check("submit", err)
	for st := srv.Stats(); st.Running+st.Queued > 0; st = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	_, err = job.Fetch(true)
	check("fetch", err)

	_, err = c.CallAsync("echo", 1, in, out).Wait()
	check("call async", err)
	_, err = c.Stats()
	check("stats", err)
	_, err = c.Trace()
	check("trace", err)
}
