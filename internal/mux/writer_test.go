package mux

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// fourth chunk and abort of the stream with seq 10 (chunks are counted
// per seq: their size is the writer's to choose). It is also the
// writer's clock: a Write of n bytes advances it by n/rate (plus a
// one-shot stall), nothing else does, so a script says exactly how long
// every write took and no test reads the wall clock. onStart runs on
// the writer goroutine when a frame's header arrives, onFrame after its
// last byte, which is how a script queues an item at an exact point of
// the schedule. Frame number failAt (when ≥ 0) is refused with
// errInjected at its first byte, after onFail ran.
type recConn struct {
	buf     []byte
	open    bool           // the frame at the head of buf has been named
	ord     map[uint32]int // chunks seen per seq
	frames  []string
	sizes   []int           // per frame: a chunk's data bytes, else the payload's
	at      []time.Duration // per frame: the clock when its last byte was written
	raw     []byte          // every byte written, when keep is set
	keep    bool
	onStart func(name string)
	onFrame func(name string)
	failAt  int
	onFail  func()
	late    int // Write calls after the injected error
	closed  int

	clock time.Duration // the scripted time, as an offset from the zero Time
	rate  float64       // bytes per second a Write moves; 0: writes take no time
	stall time.Duration // added to the next Write, once
}

func (c *recConn) now() time.Time { return time.Time{}.Add(c.clock) }

// floorRate is the write rate at which the policy holds the chunk size
// at chunkFloor: the schedule tests run on it, so their streams are cut
// into equal chunks and the pinned orders depend on the schedule alone.
const floorRate = float64(chunkFloor) / (float64(chunkTarget) / float64(time.Second))

var errInjected = errors.New("injected write error")

func (c *recConn) Write(p []byte) (int, error) {
	if c.failAt >= 0 && len(c.at) == c.failAt {
		if c.onFail != nil {
			c.onFail()
			c.onFail = nil
		} else {
			c.late++
		}
		return 0, errInjected
	}
	if c.rate > 0 {
		c.clock += time.Duration(float64(len(p)) / c.rate * float64(time.Second))
	}
	c.clock, c.stall = c.clock+c.stall, 0
	if c.keep {
		c.raw = append(c.raw, p...)
	}
	c.buf = append(c.buf, p...)
	for len(c.buf) >= 16 {
		be := binary.BigEndian.Uint32
		t, seq, n := protocol.MsgType(be(c.buf[4:])&0xffff), be(c.buf[8:]), int(be(c.buf[12:]))
		if !c.open {
			c.open = true
			name, size := fmt.Sprintf("f%d", seq), n
			switch t {
			case protocol.MsgBulkBegin:
				name = fmt.Sprintf("%dbegin", seq)
			case protocol.MsgBulkChunk:
				if c.ord == nil {
					c.ord = make(map[uint32]int)
				}
				name, size = fmt.Sprintf("%dc%d", seq, c.ord[seq]), n-8
				c.ord[seq]++
			case protocol.MsgBulkAbort:
				name = fmt.Sprintf("%dabort", seq)
			}
			c.frames, c.sizes = append(c.frames, name), append(c.sizes, size)
			if c.onStart != nil {
				c.onStart(name)
			}
		}
		if len(c.buf) < 16+n {
			break
		}
		c.buf, c.open = c.buf[16+n:], false
		c.at = append(c.at, c.clock)
		if c.onFrame != nil {
			c.onFrame(c.frames[len(c.at)-1])
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
	return newScriptAt(t, c, protocol.MuxVersionCache, items)
}

// newScriptAt is newScript on a connection that negotiated version.
func newScriptAt(t *testing.T, c *recConn, version, items int) *script {
	s := &script{t: t, sent: make(map[uint32]int), want: int32(items), done: make(chan struct{})}
	s.w = newWriter(c, version, func(err error) { s.failed = append(s.failed, err) }, func() {
		if s.settled.Add(1) == s.want {
			close(s.done)
		}
	}, c.now)
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
	if err := s.w.Send(it, nil); err != nil {
		s.t.Errorf("Send(seq %d) refused: %v", it.Seq, err)
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

// nineChunks is a payload of eight whole chunks and a short ninth on a
// connection writing at floorRate.
var nineChunks = make([]byte, 8*chunkFloor+100)

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
	c := &recConn{failAt: -1, rate: floorRate}
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
	c := &recConn{failAt: -1, rate: floorRate}
	s := newScript(t, c, 3)
	s.send(s.bulk(10, nineChunks[:2*chunkFloor], nil))
	s.send(s.bulk(20, nineChunks[:chunkFloor], nil))
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
	c := &recConn{failAt: 5, rate: floorRate} // f1 f2 10begin 10c0 20begin | 20c0 is refused
	s := newScript(t, c, 8)
	caller := &hold{settled: make(chan struct{})}
	c.onFrame = func(name string) {
		if name == "f1" {
			s.send(s.frame(2))
			s.send(s.bulk(10, nineChunks[:chunkFloor], nil))
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

// chunksOf returns the data sizes of one stream's chunks, in order.
func (c *recConn) chunksOf(seq uint32) []int {
	var sizes []int
	for i, name := range c.frames {
		if strings.HasPrefix(name, fmt.Sprintf("%dc", seq)) {
			sizes = append(sizes, c.sizes[i])
		}
	}
	return sizes
}

// TestWriterChunkAdapts pins the chunk-size policy on the scripted
// clock. Per rate, from the paper's 0.17 MB/s WAN to loopback: a
// connection's first chunk is chunkFloor, no chunk is more than double
// the one before, and by settleBy chunks the size sits within ±25% of
// rate × chunkTarget or at the clamp that product falls outside; a
// frame queued as a settled chunk starts leaves right after that chunk,
// having waited no longer than the chunk took; and the connection's
// next stream starts at the size the first one ended on. Then, on one
// connection: a rate step up regrows by doubling, a stalled write
// shrinks to the floor in one step.
func TestWriterChunkAdapts(t *testing.T) {
	const settleBy = 6 // five doublings take chunkFloor to the ceiling
	if chunkFloor != 16<<10 || chunkTarget != 4*time.Millisecond || protocol.DefaultBulkChunk != chunkFloor<<(settleBy-1) {
		t.Fatalf("chunk policy constants changed (floor %d, target %v, ceiling %d): restate settleBy and the docs that quote them",
			chunkFloor, chunkTarget, protocol.DefaultBulkChunk)
	}
	settled := func(rate float64) (lo, hi int) {
		ideal := rate * chunkTarget.Seconds()
		clamp := func(v float64) int { return int(max(chunkFloor, min(v, protocol.DefaultBulkChunk))) }
		return clamp(0.75 * ideal), clamp(1.25 * ideal)
	}
	for _, rate := range []float64{0.17e6, 4e6, 22e6, 100e6, 3e9} {
		t.Run(fmt.Sprintf("%gMBps", rate/1e6), func(t *testing.T) {
			lo, hi := settled(rate)
			c := &recConn{failAt: -1, rate: rate}
			s := newScript(t, c, 3)
			// Room for the doublings, then six chunks at the settled size.
			first := make([]byte, 2*protocol.DefaultBulkChunk+6*hi)
			probe := fmt.Sprintf("10c%d", settleBy+1)
			var queuedAt time.Duration
			c.onStart = func(name string) {
				if name == probe {
					queuedAt = c.clock
					s.send(s.frame(40))
				}
			}
			it := s.bulk(10, first, nil)
			it.Sent = func() { s.send(s.bulk(20, first[:3*hi], nil)) }
			s.send(it)
			s.wait()
			s.w.Close()

			sizes := c.chunksOf(10)
			if sizes[0] != chunkFloor {
				t.Errorf("first chunk %d bytes, want the floor %d", sizes[0], chunkFloor)
			}
			for i, n := range sizes[:len(sizes)-1] { // the last is the message's tail
				if i > 0 && n > 2*sizes[i-1] {
					t.Errorf("chunk %d grew %d → %d, more than double", i, sizes[i-1], n)
				}
				if i >= settleBy-1 && (n < lo || n > hi) {
					t.Errorf("chunk %d is %d bytes, want %d…%d from chunk %d on (sizes %v)", i, n, lo, hi, settleBy-1, sizes)
				}
			}
			at := slices.Index(c.frames, probe)
			if at < 0 || c.frames[at+1] != "f40" {
				t.Fatalf("frame queued at the start of %s did not leave right after it: %v", probe, c.frames)
			}
			if wait, limit := c.at[at+1]-queuedAt, time.Duration(float64(hi+200)/rate*float64(time.Second)); wait > limit {
				t.Errorf("frame waited %v behind a chunk, want at most %v", wait, limit)
			}
			if n := c.chunksOf(20)[0]; n < lo || n > hi {
				t.Errorf("the connection's second stream started at %d bytes, want the settled %d…%d", n, lo, hi)
			}
		})
	}

	t.Run("step-and-stall", func(t *testing.T) {
		c := &recConn{failAt: -1, rate: 22e6, keep: true}
		s := newScript(t, c, 1)
		c.onFrame = func(name string) {
			switch name {
			case "10c7":
				c.rate = 3e9 // 10c8 is the first write to see it
			case "10c12":
				c.stall = time.Second // lands on 10c13's first write
			}
		}
		payload := make([]byte, 6<<20)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		s.send(s.bulk(10, payload, nil))
		s.wait()
		s.w.Close()

		sizes := c.chunksOf(10)
		lo, hi := settled(22e6)
		if sizes[7] < lo || sizes[7] > hi {
			t.Fatalf("chunk 7 is %d bytes, want %d…%d: %v", sizes[7], lo, hi, sizes)
		}
		for i := 9; i <= 13; i++ {
			if want := min(2*sizes[i-1], protocol.DefaultBulkChunk); sizes[i] != want {
				t.Errorf("after the rate step chunk %d is %d bytes, want %d (doubling to the ceiling): %v", i, sizes[i], want, sizes)
			}
		}
		if sizes[14] != chunkFloor {
			t.Errorf("chunk after the stalled one is %d bytes, want the floor %d in one step: %v", sizes[14], chunkFloor, sizes)
		}
		if sizes[15] != 2*chunkFloor {
			t.Errorf("second chunk after the stall is %d bytes, want %d: %v", sizes[15], 2*chunkFloor, sizes)
		}
		// The receiver takes the sizes as they come.
		var got []byte
		err := ReadFrames(bytes.NewReader(c.raw), 16<<20, nil, func(seq uint32, m Message) {
			got = append(got, m.FB.Payload()...)
			m.FB.Release()
		})
		if err != io.EOF || !bytes.Equal(got, payload) {
			t.Errorf("ReadFrames over the recorded stream: err %v, payload equal %v", err, bytes.Equal(got, payload))
		}
	})
}

// TestWriterLevelGate holds the level table where every frame either end
// sends passes, the writer. At each negotiated level an item whose type,
// or for a stream the bulk frames, needs more is refused, and one at or
// below it goes out. A refused item puts no byte on the wire and runs no
// Sent hook; it is settled, which releases its buffer and closes its
// hold; and on a session its exchange leaves nothing in flight.
func TestWriterLevelGate(t *testing.T) {
	type gateCase struct {
		typ  protocol.MsgType
		need int
		bulk bool // a stream of typ, which needs the bulk frames whatever typ is
	}
	cases := []gateCase{
		{protocol.MsgCall, 0, false},
		{protocol.MsgBulkBegin, protocol.MuxVersionBulk, false},
		{protocol.MsgBulkChunk, protocol.MuxVersionBulk, false},
		{protocol.MsgBulkAbort, protocol.MuxVersionBulk, false},
		{protocol.MsgCallDigest, protocol.MuxVersionCache, false},
		{protocol.MsgDigestStatus, protocol.MuxVersionCache, false},
		{protocol.MsgDataHandle, protocol.MuxVersionCache, false},
		{protocol.MsgDataHandleOK, protocol.MuxVersionCache, false},
		{protocol.MsgCall, protocol.MuxVersionBulk, true},
	}
	for typ := protocol.MsgType(0); typ < 1<<10; typ++ {
		i := slices.IndexFunc(cases, func(c gateCase) bool { return c.typ == typ && !c.bulk })
		if i < 0 && typ.Level() > 0 || i >= 0 && typ.Level() != cases[i].need {
			t.Errorf("%v.Level() = %d, not as this table has it", typ, typ.Level())
		}
	}
	payload := make([]byte, chunkFloor)
	for _, level := range []int{protocol.MuxVersion, protocol.MuxVersionBulk, protocol.MuxVersionCache} {
		for _, tc := range cases {
			name := tc.typ.String()
			if tc.bulk {
				name = "stream-of-" + name
			}
			t.Run(fmt.Sprintf("v%d/%s", level, name), func(t *testing.T) {
				refused := tc.need > level

				c := &recConn{failAt: -1, keep: true}
				s := newScriptAt(t, c, level, 1)
				h := newHold()
				it := s.frame(1)
				it.Type = tc.typ
				if tc.bulk {
					it = s.bulk(1, payload, h)
				}
				err := s.w.Send(it, nil)
				s.wait()
				s.w.Close()
				if (err != nil) != refused {
					t.Fatalf("Send: err %v, want refused %t", err, refused)
				}
				if refused {
					if len(c.raw) != 0 {
						t.Errorf("a refused item wrote %d bytes: %v", len(c.raw), c.frames)
					}
					s.sentSeqs()
				} else {
					s.sentSeqs(1)
				}
				if tc.bulk && (!isSettled(h) || h.written == refused) {
					t.Errorf("hold settled %t, written %t", isSettled(h), h.written)
				}

				sess, sc := scriptSession(t, level)
				answered := false
				sc.rec.onFrame = func(string) {
					if !answered {
						answered = true
						sc.feed(protocol.MsgCallOK, 1, "ok")
					}
				}
				var fb *protocol.Buffer
				if tc.bulk {
					_, fb, _, err = sess.RoundtripBulk(context.Background(), protocol.RawBulkMsg(protocol.MsgCall, payload))
				} else {
					_, fb, _, err = sess.Roundtrip(context.Background(), tc.typ, reqBuf("x"))
				}
				fb.Release()
				if (err != nil) != refused {
					t.Fatalf("session exchange: err %v, want refused %t", err, refused)
				}
				if refused && len(sc.rec.frames) != 0 {
					t.Errorf("a refused exchange wrote %v", sc.rec.frames)
				}
				if n := sess.InFlight(); n != 0 || sess.Broken() {
					t.Errorf("after the exchange: %d in flight, broken %t", n, sess.Broken())
				}
			})
		}
	}
}
