package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ninf/internal/protocol"
)

// recConn is the Writer's connection in the schedule tests: it parses
// the byte stream back into frames and names each one — "f7" a whole
// frame with seq 7, "10begin" / "10c3" / "10abort" the begin header,
// fourth chunk and abort of the stream with seq 10. onFrame runs on the
// writer goroutine after each complete frame, which is how a script
// queues an item at an exact point of the schedule. Frame number failAt
// (when ≥ 0) is refused with errInjected at its first byte, after
// onFail ran.
type recConn struct {
	buf     []byte
	frames  []string
	onFrame func(name string)
	failAt  int
	onFail  func()
	late    int // Write calls after the injected error
	closed  int
}

var errInjected = errors.New("injected write error")

func (c *recConn) Write(p []byte) (int, error) {
	if c.failAt >= 0 && len(c.frames) == c.failAt {
		if c.onFail != nil {
			c.onFail()
			c.onFail = nil
		} else {
			c.late++
		}
		return 0, errInjected
	}
	c.buf = append(c.buf, p...)
	for len(c.buf) >= 16 {
		be := binary.BigEndian.Uint32
		t, seq, n := protocol.MsgType(be(c.buf[4:])&0xffff), be(c.buf[8:]), int(be(c.buf[12:]))
		if len(c.buf) < 16+n {
			break
		}
		name := fmt.Sprintf("f%d", seq)
		switch t {
		case protocol.MsgBulkBegin:
			name = fmt.Sprintf("%dbegin", seq)
		case protocol.MsgBulkChunk:
			name = fmt.Sprintf("%dc%d", seq, int(be(c.buf[16:]))/protocol.DefaultBulkChunk)
		case protocol.MsgBulkAbort:
			name = fmt.Sprintf("%dabort", seq)
		}
		c.buf = c.buf[16+n:]
		c.frames = append(c.frames, name)
		if c.onFrame != nil {
			c.onFrame(name)
		}
	}
	return len(p), nil
}

func (c *recConn) Close() error { c.closed++; return nil }

// script is the bookkeeping every schedule test shares: which items'
// Sent hooks ran, how many items were settled, and a signal once the
// expected number has been.
type script struct {
	t       *testing.T
	w       *Writer
	sent    map[uint32]int
	settled atomic.Int32
	want    int32
	done    chan struct{}
	failed  []error
}

func newScript(t *testing.T, c *recConn, items int) *script {
	s := &script{t: t, sent: make(map[uint32]int), want: int32(items), done: make(chan struct{})}
	s.w = NewWriter(c, func(err error) { s.failed = append(s.failed, err) }, func() {
		if s.settled.Add(1) == s.want {
			close(s.done)
		}
	})
	return s
}

// frame and bulk build items whose Sent hooks count per seq. Sent runs
// on the writer goroutine only, so the map needs no lock.
func (s *script) frame(seq uint32) Item {
	return Item{Type: protocol.MsgCall, Seq: seq, Frame: reqBuf("x"), Sent: func() { s.sent[seq]++ }}
}

func (s *script) bulk(seq uint32, payload []byte, h *hold) Item {
	return Item{Seq: seq, Bulk: protocol.RawBulkMsg(protocol.MsgCall, payload), Sent: func() { s.sent[seq]++ }, hold: h}
}

func (s *script) send(it Item) {
	if !s.w.Send(it, nil) {
		s.t.Errorf("Send(seq %d) refused", it.Seq)
	}
}

func (s *script) wait() {
	s.t.Helper()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.t.Fatalf("settled %d of %d items", s.settled.Load(), s.want)
	}
}

func (s *script) sentSeqs(seqs ...uint32) {
	s.t.Helper()
	want := make(map[uint32]int)
	for _, q := range seqs {
		want[q] = 1
	}
	if !reflect.DeepEqual(s.sent, want) {
		s.t.Errorf("Sent hooks ran for %v, want exactly once each for %v", s.sent, seqs)
	}
}

// nineChunks is a payload of eight whole chunks and a short ninth.
var nineChunks = make([]byte, 8*protocol.DefaultBulkChunk+100)

// TestWriterSchedule pins the flush schedule — the only test that does.
// Everything is queued from inside the writer's own Write calls, so the
// writer sees exactly the scripted queue at each turn: queued frames go
// out first, as one batch; then one stream frame per turn, a frame
// queued mid-stream overtaking the next chunk; streamBurst consecutive
// frames of one stream before the next stream's turn; MsgBulkAbort for a
// stream abandoned half-sent and nothing at all for one abandoned
// before it began.
func TestWriterSchedule(t *testing.T) {
	if streamBurst != 4 || writeBatch != 64 || writeYields != 2 || queueDepth != 256 {
		t.Fatalf("engine constants changed (burst %d, batch %d, yields %d, depth %d): restate the expected schedule below, and the docs that quote them",
			streamBurst, writeBatch, writeYields, queueDepth)
	}
	c := &recConn{failAt: -1}
	s := newScript(t, c, 10)
	halfSent, unbegun := &hold{settled: make(chan struct{})}, &hold{settled: make(chan struct{})}
	unbegun.abandoned.Store(true)
	c.onFrame = func(name string) {
		switch name {
		case "f0":
			for seq := uint32(1); seq <= 5; seq++ {
				s.send(s.frame(seq))
			}
			s.send(s.bulk(10, nineChunks, nil))
			s.send(s.bulk(20, nineChunks, halfSent))
			s.send(s.bulk(30, nineChunks, unbegun))
		case "10c1":
			s.send(s.frame(40))
		case "20c4":
			halfSent.abandoned.Store(true)
		}
	}
	s.send(s.frame(0))
	s.wait()
	s.w.Close()

	want := strings.Fields(`
		f0
		f1 f2 f3 f4 f5
		10begin 10c0 10c1 f40 10c2
		20begin 20c0 20c1 20c2
		10c3 10c4 10c5 10c6
		20c3 20c4 20abort
		10c7 10c8`)
	if !reflect.DeepEqual(c.frames, want) {
		t.Errorf("frame order\n got %v\nwant %v", c.frames, want)
	}
	s.sentSeqs(0, 1, 2, 3, 4, 5, 40, 10)
	for name, h := range map[string]*hold{"half-sent": halfSent, "unbegun": unbegun} {
		select {
		case <-h.settled:
		default:
			t.Errorf("%s abandoned stream never settled", name)
		}
	}
	if n := s.settled.Load(); n != s.want {
		t.Errorf("settled %d items, want %d", n, s.want)
	}
	if len(s.failed) != 0 || c.closed != 0 {
		t.Errorf("clean run reported failures %v, closed the conn %d times", s.failed, c.closed)
	}
}

// TestWriterCloseFinishesStreams: a graceful Close flushes what is
// queued and streams every active message to its end before returning.
func TestWriterCloseFinishesStreams(t *testing.T) {
	c := &recConn{failAt: -1}
	s := newScript(t, c, 3)
	s.send(s.bulk(10, nineChunks[:2*protocol.DefaultBulkChunk], nil))
	s.send(s.bulk(20, nineChunks[:protocol.DefaultBulkChunk], nil))
	s.send(s.frame(1))
	s.w.Close()
	select {
	case <-s.done:
	default:
		t.Fatalf("Close returned with %d of %d items settled", s.settled.Load(), s.want)
	}
	for _, name := range []string{"f1", "10begin", "10c0", "10c1", "20begin", "20c0"} {
		if !slices.Contains(c.frames, name) {
			t.Errorf("frame %s missing after Close: %v", name, c.frames)
		}
	}
	// An item sent to a stopped writer is still settled, as not written.
	s.w.Send(s.frame(2), nil)
	if n := s.settled.Load(); n != 4 {
		t.Errorf("settled %d items after a late Send, want 4", n)
	}
	s.sentSeqs(1, 10, 20)
}

// TestWriterErrorSettlesNotWritten: the write error is reported once
// and closes the conn; the failed stream, everything queued at the time
// and everything sent afterwards is settled as not written — no Sent
// hook, no further write — and the writer keeps draining until Close.
func TestWriterErrorSettlesNotWritten(t *testing.T) {
	c := &recConn{failAt: 5} // f1 f2 10begin 10c0 20begin | 20c0 is refused
	s := newScript(t, c, 8)
	caller := &hold{settled: make(chan struct{})}
	c.onFrame = func(name string) {
		if name == "f1" {
			s.send(s.frame(2))
			s.send(s.bulk(10, nineChunks[:protocol.DefaultBulkChunk], nil))
			s.send(s.bulk(20, nineChunks, caller))
		}
	}
	c.onFail = func() {
		s.send(s.frame(3))
		s.send(s.bulk(30, nineChunks, nil))
	}
	s.send(s.frame(1))
	<-caller.settled // a caller parked on its hold is released by the error
	s.send(s.frame(4))
	s.send(s.bulk(40, nineChunks, nil))
	s.wait()
	s.w.Close()

	if want := []string{"f1", "f2", "10begin", "10c0", "20begin"}; !reflect.DeepEqual(c.frames, want) {
		t.Errorf("frames before the error\n got %v\nwant %v", c.frames, want)
	}
	if c.late != 0 {
		t.Errorf("%d writes attempted after the error", c.late)
	}
	if len(s.failed) != 1 || !errors.Is(s.failed[0], errInjected) {
		t.Errorf("failed hook got %v, want the injected error once", s.failed)
	}
	if c.closed != 1 {
		t.Errorf("conn closed %d times, want 1", c.closed)
	}
	s.sentSeqs(1, 2, 10)
	if n := s.settled.Load(); n != s.want {
		t.Errorf("settled %d items, want %d", n, s.want)
	}
}
