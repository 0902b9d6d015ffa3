package mux

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ninf/internal/protocol"
)

// The mux engine: the two loops that own a version-2 connection, run
// unchanged by both ends of it. A Writer owns the write side — every
// frame either peer sends leaves through its one goroutine, so
// concurrent callers (client) and concurrent dispatch goroutines
// (server) can never interleave bytes mid-frame — and ReadFrames owns
// the read side. What differs between the ends is data handed to these
// two: the items queued, their hooks, and the sink that receives
// complete messages.
//
// The flush schedule is the writer's one decision. Per turn it gathers
// every queued frame (at most writeBatch) into one vectored write, then
// writes exactly one frame of one active bulk stream — its begin
// header, one bounded chunk, or an abort — and looks at the queue
// again, so a small frame queued behind an 8 MiB transfer waits for
// one chunk write. Chunks are sized in time: a write should take about
// chunkTarget at the rate the connection is observed to accept bytes
// (see resize), so once the rate is learned the wait is at most the
// target time whatever the link, and protocol.DefaultBulkChunk is only
// the ceiling a fast path reaches. Streams rotate round-robin after
// streamBurst consecutive chunks. Before flushing a short batch with no
// stream active the writer yields the processor, at most writeYields
// times, while more frames are expected soon (see Expect): the
// goroutines about to enqueue get to run, and their frames join this
// write instead of costing a syscall each. With a stream active it
// never yields — the chunk write is the pause that lets frames
// accumulate.
const (
	// writeBatch bounds how many queued frames one vectored write
	// gathers. 64 matches the deepest pipelines the benchmarks drive and
	// stays well under the kernel's iovec limit.
	writeBatch = 64

	// writeYields bounds the yields before one flush, so a lone caller
	// whose expected peers never enqueue pays two scheduler passes, not
	// a stall.
	writeYields = 2

	// streamBurst is how many consecutive chunks the writer takes from
	// one bulk stream before rotating to the next. Queued frames still
	// preempt between every chunk, so small-call latency is bounded by
	// one chunk write regardless; the burst only trades inter-stream
	// fairness for streaming locality — rotating 8 MiB transfers every
	// single chunk walks a different source buffer each write and
	// measurably hurts aggregate throughput on concurrent transfers.
	streamBurst = 4

	// queueDepth is the writer queue's capacity: senders past it block
	// (backpressure). It exceeds the server's per-connection dispatch
	// bound, so a dispatch goroutine never waits to hand over its reply.
	queueDepth = 256

	// chunkFloor is the chunk size a connection starts at and never goes
	// below. Starting small is what bounds the first wait on a path
	// nothing is known about yet (96 ms at the paper's 0.17 MB/s WAN,
	// where a ceiling-sized chunk is 3 s); below 16 KiB the 24-byte
	// chunk header and the per-chunk turn stop being negligible. The
	// ceiling is protocol.DefaultBulkChunk.
	chunkFloor = 16 << 10

	// chunkTarget is how long one chunk write should take, and so how
	// long a frame queued mid-stream waits for the wire. At 4 ms a path
	// faster than 128 MB/s runs at the ceiling.
	chunkTarget = 4 * time.Millisecond
)

// An Item is one outbound message on a Writer's queue: Frame, a
// complete payload that travels as one frame stamped Type and Seq, or
// Bulk, a message streamed as chunked frames under Seq (it carries its
// own inner type). The writer owns the item from Send until it settles
// it — exactly once, as written or not written. Sent, when set, runs
// only for an item that reached the wire whole; then Frame or Bulk is
// released either way.
type Item struct {
	Type  protocol.MsgType
	Seq   uint32
	Frame *protocol.Buffer
	Bulk  *protocol.BulkMsg
	Sent  func()

	hold *hold
}

// hold is the enqueuer's handle on a bulk item whose spans alias memory
// it wants back: setting abandoned asks the writer to stop sending
// (MsgBulkAbort covers a half-sent stream), and settled closes once the
// writer holds no reference to the spans. written and sent are the
// writer's account of how it ended, the enqueuer's to read after that:
// whether the whole message reached the wire, and how much of one that
// was abandoned did.
type hold struct {
	abandoned atomic.Bool
	settled   chan struct{}
	written   bool
	sent      int
}

// stream is one bulk item in flight in the writer.
type stream struct {
	Item
	cur   protocol.BulkCursor
	begun bool
}

// A Writer is the single serialized writer of a version-2 connection.
type Writer struct {
	conn  io.WriteCloser
	cache bool // the server granted its argument cache on this connection
	queue chan Item

	// expected counts frames likely to be queued within a scheduler pass
	// or two; it gates the pre-flush yield (see Expect).
	expected atomic.Int32

	failOnce sync.Once
	failed   func(error) // told the first failure
	settled  func()      // told of every settled item; may be nil

	// chunk is the data size of the next bulk chunk and now the clock
	// its writes are timed on; both belong to the writer goroutine. One
	// size per connection, carried from stream to stream: it estimates
	// the path, not a message.
	chunk int
	now   func() time.Time

	closeOnce sync.Once
	closing   chan struct{} // closed by shutdown: flush, then exit
	stopped   chan struct{} // closed when the goroutine has exited
}

// NewWriter starts the writer of conn, a mux connection whose server
// granted its argument cache if cache is set. A write error closes conn
// (which wakes the connection's reader, so the whole connection tears
// down), is reported once to failed, and settles every item queued then
// or later as not written; the writer keeps draining until Close.
// settled, if non-nil, runs after each item is settled, written or not.
func NewWriter(conn io.WriteCloser, cache bool, failed func(error), settled func()) *Writer {
	return newWriter(conn, cache, failed, settled, time.Now)
}

// newWriter is NewWriter on a given clock; only tests pass another.
func newWriter(conn io.WriteCloser, cache bool, failed func(error), settled func(), now func() time.Time) *Writer {
	w := &Writer{
		conn:    conn,
		cache:   cache,
		queue:   make(chan Item, queueDepth),
		failed:  failed,
		settled: settled,
		chunk:   chunkFloor,
		now:     now,
		closing: make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go w.run()
	return w
}

// Send queues it, blocking while the queue is full. A cache frame
// (protocol.MsgType.Cache) on a connection without the cache grant is
// refused: nothing of it reaches the wire. Send reports an error, with
// the item settled as not written, for such an item and when cancel
// (which may be nil) fires or the writer is found exited first. A queued
// item is settled by the writer, or on its behalf if it exits without
// taking it.
func (w *Writer) Send(it Item, cancel <-chan struct{}) error {
	if it.Type.Cache() && !w.cache {
		w.settle(&it, false)
		return fmt.Errorf("mux: a %v item (bulk %t) needs the cache grant, which the connection lacks", it.Type, it.Bulk != nil)
	}
	select {
	case w.queue <- it:
		select {
		case <-w.stopped:
			// The send raced the writer's exit.
			w.drain()
		default:
		}
		return nil
	case <-w.stopped:
	case <-cancel:
	}
	w.settle(&it, false)
	return errNotQueued
}

// Expect notes that a goroutine is about to queue a frame: the client's
// reader calls it for each reply it hands to a waiting caller (who will
// likely issue a follow-up), the server's for each request it hands to
// a dispatch goroutine (which owes a reply). The writer counts the note
// off again for each item it dequeues.
func (w *Writer) Expect() { w.expected.Add(1) }

// Close stops the writer gracefully and waits for it: frames already
// queued are flushed and active streams finished first, so call it once
// no more Sends can happen. On a dead connection both fail at the first
// write and everything is settled as not written instead.
func (w *Writer) Close() {
	w.shutdown()
	<-w.stopped
}

// shutdown is Close without the wait.
func (w *Writer) shutdown() { w.closeOnce.Do(func() { close(w.closing) }) }

// run is the writer goroutine; the package comment above the constants
// describes its schedule.
func (w *Writer) run() {
	defer func() {
		close(w.stopped)
		w.drain() // a Send that slipped in before stopped closed
	}()
	batch := make([]Item, 0, writeBatch)
	bufs := make([]*protocol.Buffer, 0, writeBatch)
	var active []stream
	rr, burst := 0, 0
	broken, closing := false, false
	for {
		batch = batch[:0]
		if len(active) == 0 && !closing {
			select {
			case it := <-w.queue:
				batch, active = w.take(it, batch, active)
			case <-w.closing:
				closing = true
			}
		}
		for yields := 0; ; {
		gather:
			for len(batch) < writeBatch {
				select {
				case it := <-w.queue:
					batch, active = w.take(it, batch, active)
				default:
					break gather
				}
			}
			if closing || len(active) > 0 || yields >= writeYields || len(batch) >= writeBatch || w.expected.Load() <= 0 {
				break
			}
			yields++
			runtime.Gosched()
		}
		if closing && len(batch) == 0 && len(active) == 0 {
			return
		}
		if len(batch) > 0 {
			bufs = bufs[:0]
			for i := range batch {
				protocol.StampMux(batch[i].Frame, batch[i].Type, batch[i].Seq)
				bufs = append(bufs, batch[i].Frame)
			}
			if !broken {
				if err := protocol.WriteStampedFrames(w.conn, bufs); err != nil {
					broken = true
					w.Fail(err)
				}
			}
			for i := range batch {
				w.settle(&batch[i], !broken)
			}
		}
		if len(active) == 0 {
			continue
		}
		if broken {
			for i := range active {
				w.settle(&active[i].Item, false)
			}
			active = active[:0]
			continue
		}
		rr %= len(active)
		st := &active[rr]
		done, err := w.step(st)
		if err != nil {
			broken = true
			w.Fail(err)
			continue // the next turn settles every stream, st included
		}
		if done {
			w.settle(&st.Item, st.cur.Done())
			active[rr] = active[len(active)-1]
			active = active[:len(active)-1]
			burst = 0
		} else if burst++; burst >= streamBurst {
			rr++
			burst = 0
		}
	}
}

// take routes one dequeued item to the frame batch or the active
// streams.
func (w *Writer) take(it Item, batch []Item, active []stream) ([]Item, []stream) {
	if w.expected.Load() > 0 {
		w.expected.Add(-1)
	}
	if it.Bulk != nil {
		return batch, append(active, stream{Item: it, cur: it.Bulk.Cursor()})
	}
	return append(batch, it), active
}

// step puts one frame of a stream on the wire: its begin header, its
// next chunk, or — once its enqueuer abandoned it — the MsgBulkAbort
// that lets the receiver drop a begun, unfinished reassembly. It
// reports whether the stream is over (fully written, or abandoned).
func (w *Writer) step(st *stream) (bool, error) {
	abandoned := st.hold != nil && st.hold.abandoned.Load()
	switch {
	case abandoned && !st.begun:
		return true, nil // nothing on the wire to retract
	case abandoned:
		st.hold.sent = st.cur.Sent()
		return true, protocol.WriteMuxFrame(w.conn, protocol.MsgBulkAbort, st.Seq, nil)
	case !st.begun:
		st.begun = true
		fb := st.Bulk.EncodeBegin()
		err := protocol.WriteMuxFrameBuf(w.conn, protocol.MsgBulkBegin, st.Seq, fb)
		fb.Release()
		return false, err
	}
	sent, start := st.cur.Sent(), w.now()
	done, err := st.cur.WriteChunk(w.conn, st.Seq, w.chunk)
	if err == nil {
		w.resize(st.cur.Sent()-sent, w.now().Sub(start))
	}
	return done, err
}

// resize sets the next chunk size from the write just finished: n data
// bytes in elapsed is the rate the path accepted them at — the link's,
// once whatever buffers sit below conn are full, or the peer's reading
// rate if that is lower — and the next chunk is what that rate moves in
// chunkTarget. The size grows by doubling at most, so one write that a
// buffer swallowed whole cannot jump it to the ceiling, and shrinks in
// one step, because every chunk sent too large is a full head-of-line
// wait for the frames behind it.
func (w *Writer) resize(n int, elapsed time.Duration) {
	if n < w.chunk && elapsed <= chunkTarget {
		// A message's short tail that took no longer than a whole chunk
		// may: mostly per-write cost, it says nothing about the rate.
		return
	}
	want := int64(protocol.DefaultBulkChunk)
	if elapsed > 0 {
		want = min(want, int64(n)*int64(chunkTarget)/int64(elapsed))
	}
	w.chunk = max(chunkFloor, min(int(want), 2*w.chunk))
}

// settle disposes of one item, written or not. Any goroutine may settle
// an item it holds; each item is held by exactly one.
func (w *Writer) settle(it *Item, written bool) {
	if written && it.Sent != nil {
		it.Sent()
	}
	it.Frame.Release()
	it.Bulk.Release()
	if it.hold != nil {
		it.hold.written = written
		close(it.hold.settled)
	}
	if w.settled != nil {
		w.settled()
	}
}

// Fail fails the connection as a write error does: conn closes, so no
// later write succeeds, and failed hears err unless it already heard of
// an earlier failure.
func (w *Writer) Fail(err error) {
	w.failOnce.Do(func() {
		w.conn.Close()
		w.failed(err)
	})
}

// drain settles whatever is queued as not written.
func (w *Writer) drain() {
	for {
		select {
		case it := <-w.queue:
			w.settle(&it, false)
		default:
			return
		}
	}
}

// ErrAborted is a Message's Err when the peer abandoned a chunked
// message mid-stream; wrapping io.ErrUnexpectedEOF keeps it classified
// retryable without allocating in the read loop.
var ErrAborted = fmt.Errorf("mux: peer aborted a streamed message: %w", io.ErrUnexpectedEOF)

// A Message is one complete inbound message. Bulk is non-nil when it
// arrived chunked; FB then holds the full logical payload and Bulk
// locates its head. The receiver owns FB and must Release it. A non-nil
// Err (ErrAborted) stands for a message that will never complete.
type Message struct {
	Type protocol.MsgType
	FB   *protocol.Buffer
	Bulk *protocol.BulkInfo
	Err  error
}

// ReadFrames owns the read side of a version-2 connection: it reads
// frames until r fails, returning the error (a clean EOF between frames
// is io.EOF undecorated), and hands every complete message to deliver
// with its sequence number. Chunked messages reassemble here, the chunk
// data read through the buffered reader into one pooled buffer per
// sequence; when wants is non-nil and reports false for a sequence at
// its MsgBulkBegin, the message is validated and discarded instead, so
// an unwanted stream stays in sync without holding memory. A malformed,
// oversized or out-of-order frame is an error: the stream is unsound.
func ReadFrames(r io.Reader, maxPayload int, wants func(seq uint32) bool, deliver func(seq uint32, m Message)) error {
	// The buffered reader amortizes read syscalls across pipelined small
	// frames: 4 KiB holds some forty 96-byte calls. It is no larger
	// because a header read fills it with whatever the socket holds,
	// payload included, and those bytes are copied again into the frame
	// buffer; only the rest of the payload — a read at least as long as
	// the emptied buffer — goes straight from the socket to the frame
	// (a 64 KiB buffer copied whole 64 KiB frames twice).
	br := bufio.NewReaderSize(r, 4<<10)
	// Close releases anything half-assembled when the connection dies
	// mid-stream (the chaos tests' leak path).
	ra := protocol.NewReassembler(maxPayload, 0)
	defer ra.Close()
	for {
		t, seq, n, err := protocol.ReadMuxHeader(br, maxPayload)
		if err != nil {
			return err
		}
		var fb *protocol.Buffer
		if t != protocol.MsgBulkChunk {
			if fb, err = protocol.ReadMuxPayload(br, n); err != nil {
				return err
			}
		}
		switch t {
		case protocol.MsgBulkBegin:
			err := ra.Begin(seq, fb.Payload(), wants != nil && !wants(seq))
			fb.Release()
			if err != nil {
				return err
			}
		case protocol.MsgBulkChunk:
			bd, err := ra.ReadChunk(br, seq, n)
			if err != nil {
				return err
			}
			if bd != nil {
				deliver(seq, Message{Type: bd.Type, FB: bd.FB, Bulk: &bd.Bulk})
			}
		case protocol.MsgBulkAbort:
			fb.Release()
			ra.Abort(seq)
			deliver(seq, Message{Err: ErrAborted})
		default:
			deliver(seq, Message{Type: t, FB: fb})
		}
	}
}
