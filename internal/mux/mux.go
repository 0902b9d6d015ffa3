// Package mux is the multiplexed Ninf RPC connection (protocol version
// 2): many in-flight exchanges share one persistent connection instead
// of one lockstep exchange per connection. It holds the engine both
// ends of such a connection run (engine.go) — a Writer that owns the
// write side and ReadFrames that owns the read side — and, built on it,
// the client's Session. The server builds its dispatch on the same two
// (internal/server/mux.go).
//
// The writer drains a queue of frames and coalesces whatever is queued
// into a single vectored write, so a burst of small concurrent calls
// costs one syscall, not one each — the per-call overhead amortization
// the paper's §4 multi-client measurements show dominating LAN/WAN
// throughput. A Session's reader demultiplexes reply frames by their
// sequence number to the waiting callers, so a long-running call no
// longer head-of-line-blocks pings and small calls pipelined behind it.
//
// Large payloads go out chunked on every mux connection: the writer
// interleaves one bounded chunk of one active bulk stream between
// flushes of the frame queue, round-robin across streams, so an 8 MiB
// argument transfer no longer monopolizes the wire while pipelined
// 8-byte calls wait. Chunk data is written straight
// from the caller's argument slices (zero-copy, vectored); the reader
// reassembles inbound chunks into one pooled buffer per sequence. The
// one thing a Hello negotiates beyond the upgrade itself is whether the
// server grants its argument cache (protocol.HelloFlagArgCache); the
// writer refuses cache frames on a connection without the grant.
//
// Failure semantics compose with the client's resilience layer: when
// the connection dies (read/write error, reset, Close), every in-
// flight sequence fails with an error wrapping the underlying
// transport fault, which the client's RetryPolicy classifies as
// retryable and answers by dialing a fresh session. A caller's context
// ending abandons only its own sequence — the session and the other
// in-flight calls are untouched, which is the per-Seq analogue of the
// lockstep path's guarded-connection deadline.
package mux

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ninf/internal/protocol"
)

// ErrLegacy reports that the peer answered MsgHello with an error:
// it predates the multiplexed protocol. The caller should close the
// connection and stay on the lockstep path.
var ErrLegacy = errors.New("mux: peer speaks the lockstep protocol only")

// errSessionClosed is the failure cause recorded by a local Close. It
// wraps net.ErrClosed so the client's transport-fault classification
// (and its closed-client refinement) applies unchanged.
var errSessionClosed = fmt.Errorf("mux: session closed: %w", net.ErrClosed)

// errNotQueued is Writer.Send's error for an item that found the writer
// exited or its cancel fired.
var errNotQueued = errors.New("mux: writer stopped before the frame was queued")

// NegotiateHello upgrades conn to the multiplexed protocol: it sends
// MsgHello offering protocol.MuxVersionCache and reads the reply, both
// in version-1 framing. On success it returns the server's full reply —
// the version (MuxVersionCache), the cache grant (HelloFlagArgCache: the
// peer runs an enabled argument cache, the precondition for emitting
// digest references), and the incarnation epoch, which lets the caller
// detect a server restart across reconnects (0 from journal-less
// servers) — and every subsequent frame on conn must use version-2
// framing. A reply of MuxVersionBulk is taken as mux without the cache:
// no server of this module sends it, but the benchmark harness's fake
// responder (benchmark/layers.go) does. ErrLegacy means the peer is
// a version-1 server (it answered with MsgError); the connection has
// carried a complete lockstep exchange and is technically still in
// sync, but callers are expected to close it and fall back. Any other
// error is a transport fault.
func NegotiateHello(conn net.Conn, maxPayload int) (protocol.HelloReply, error) {
	req := protocol.HelloRequest{MaxVersion: protocol.MuxVersionCache}
	t, fb, err := protocol.Roundtrip(conn, protocol.MsgHello, protocol.BufferFor(req.Encode()), maxPayload)
	if err != nil {
		if protocol.Classify(err).Answered() {
			// A pre-mux server rejects the unknown frame type; a post-mux
			// server never answers Hello with an error. Either way the
			// lockstep path is the one to use.
			err = ErrLegacy
		}
		return protocol.HelloReply{}, err
	}
	if t != protocol.MsgHelloOK {
		fb.Release()
		return protocol.HelloReply{}, fmt.Errorf("mux: unexpected reply %v to hello", t)
	}
	rep, err := protocol.DecodeHelloReply(fb.Payload())
	fb.Release()
	if err != nil {
		return protocol.HelloReply{}, err
	}
	if rep.Version != protocol.MuxVersionCache && rep.Version != protocol.MuxVersionBulk {
		return protocol.HelloReply{}, fmt.Errorf("mux: peer chose unsupported version %d", rep.Version)
	}
	return rep, nil
}

// bulkAbandonStall bounds how long an abandoning caller waits for the
// writer to acknowledge dropping its argument-slice references before
// concluding the connection write is wedged and failing the session.
const bulkAbandonStall = 2 * time.Second

// A Session multiplexes sequenced request/reply exchanges over one
// negotiated connection: the client's half of the engine's division of
// labour. It keeps the sequence registry and the callers' side of
// abandonment; the connection's two sides belong to its Writer and to
// ReadFrames. Create one with Open after NegotiateHello; issue exchanges
// with Roundtrip and RoundtripBulk from any number of goroutines.
type Session struct {
	conn       net.Conn
	maxPayload int
	w          *Writer

	mu      sync.Mutex
	pending map[uint32]chan Message
	nextSeq uint32
	err     error // terminal failure cause, set once under mu

	failOnce sync.Once
	done     chan struct{} // closed when the session fails
	readDone chan struct{} // closed when the read loop has exited
}

// Open wraps a connection that completed NegotiateHello in a running
// session; cache is the server's grant, HelloFlagArgCache in its reply.
// The session owns conn and closes it on failure or Close.
func Open(conn net.Conn, maxPayload int, cache bool) *Session {
	s := &Session{
		conn:       conn,
		maxPayload: maxPayload,
		pending:    make(map[uint32]chan Message),
		done:       make(chan struct{}),
		readDone:   make(chan struct{}),
	}
	s.w = NewWriter(conn, cache, func(err error) {
		s.fail(fmt.Errorf("mux: session write failed: %w", err))
	}, nil)
	go s.readLoop()
	return s
}

// New is Open for a caller that kept only the Hello's version: the
// benchmark harness (benchmark/layers.go), whose responder grants no
// cache. The version says nothing about the grant, so New never claims it.
func New(conn net.Conn, maxPayload, version int) *Session { return Open(conn, maxPayload, false) }

// Cache reports whether the server granted its argument cache. The
// session's writer refuses a cache frame without it.
func (s *Session) Cache() bool { return s.w.cache }

// Broken reports whether the session has failed and must be replaced.
func (s *Session) Broken() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Err returns the terminal failure cause, nil while the session lives.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// InFlight reports the number of exchanges awaiting replies.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close tears the session down: the connection closes, both goroutines
// exit, and every in-flight exchange fails with an error wrapping
// net.ErrClosed.
func (s *Session) Close() error {
	s.fail(errSessionClosed)
	<-s.readDone
	s.w.Close()
	return nil
}

// fail records the terminal error, closes the connection (which fails
// the reader and every write still queued), and fails every pending
// exchange. First cause wins.
func (s *Session) fail(cause error) {
	s.failOnce.Do(func() {
		s.mu.Lock()
		s.err = cause
		waiters := s.pending
		s.pending = nil
		s.mu.Unlock()
		close(s.done)
		s.conn.Close()
		s.w.shutdown()
		for _, ch := range waiters {
			ch <- Message{Err: cause}
		}
	})
}

// deregister abandons a sequence (its caller's context ended, or its
// request never reached the queue) and returns why: the context's
// error if it ended, else the session's failure. The reply, if it later
// arrives, is dropped by the reader; one already delivered is released
// here.
func (s *Session) deregister(ctx context.Context, seq uint32, ch chan Message) error {
	s.mu.Lock()
	if s.pending != nil {
		delete(s.pending, seq)
	}
	err := s.err
	s.mu.Unlock()
	select {
	case r := <-ch:
		r.FB.Release()
	default:
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// wants reports whether a caller still awaits seq; ReadFrames asks so a
// chunked reply to an abandoned sequence reassembles in discard mode.
func (s *Session) wants(seq uint32) bool {
	s.mu.Lock()
	_, ok := s.pending[seq]
	s.mu.Unlock()
	return ok
}

// Roundtrip performs one sequenced exchange: req (consumed, whether or
// not the exchange succeeds) is queued for the coalescing writer under
// a fresh Seq, and the matching reply is awaited. The reply buffer is
// owned by the caller and must be released after decoding. A non-nil
// BulkInfo means the peer streamed the reply chunked; the buffer then
// holds the full logical payload and the info locates its head and
// segments.
//
// ctx bounds only this exchange. When it ends mid-flight the sequence
// is abandoned — the server may still execute the request — and the
// context's error is returned; the session and other in-flight
// sequences are unaffected. A session failure instead fails all
// in-flight exchanges with the transport cause, which the client's
// retry layer classifies as retryable and answers with a fresh
// session.
func (s *Session) Roundtrip(ctx context.Context, t protocol.MsgType, req *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	p, err := s.Post(ctx, t, req)
	if err != nil {
		return 0, nil, nil, err
	}
	return p.Wait(ctx)
}

// A Posted is the first half of a Roundtrip: the request is on the
// writer's queue — ahead of anything its caller queues next — and the
// reply not yet awaited. It must be given exactly one Wait.
type Posted struct {
	s   *Session
	seq uint32
	ch  chan Message
}

// Post queues req as Roundtrip does and returns without awaiting the
// reply; ctx bounds only the wait for room on the queue.
func (s *Session) Post(ctx context.Context, t protocol.MsgType, req *protocol.Buffer) (Posted, error) {
	return s.post(ctx, Item{Type: t, Frame: req})
}

// post registers a sequence and its reply channel for it and queues it,
// consuming it whatever the outcome.
func (s *Session) post(ctx context.Context, it Item) (Posted, error) {
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		s.w.settle(&it, false)
		return Posted{}, err
	}
	s.nextSeq++
	p := Posted{s, s.nextSeq, make(chan Message, 1)}
	s.pending[p.seq] = p.ch
	s.mu.Unlock()
	it.Seq = p.seq
	if err := s.w.Send(it, ctx.Done()); err != nil {
		return Posted{}, cmp.Or(s.deregister(ctx, p.seq, p.ch), err)
	}
	return p, nil
}

// Wait is the second half of a Roundtrip.
func (p Posted) Wait(ctx context.Context) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	select {
	case r := <-p.ch:
		return r.Type, r.FB, r.Bulk, r.Err
	case <-ctx.Done():
		return 0, nil, nil, p.s.deregister(ctx, p.seq, p.ch)
	}
}

// Retracted is RoundtripRetract's error for a stream withdrawn before
// its last chunk: the writer ended it with MsgBulkAbort, or never began
// it, so the peer holds no complete request and will never act on this
// sequence. Sent is how many of the message's bytes the wire carried
// for nothing.
type Retracted struct{ Sent int }

func (r Retracted) Error() string {
	return fmt.Sprintf("mux: bulk send retracted after %d bytes", r.Sent)
}

// RoundtripBulk performs one sequenced exchange whose request streams
// out as chunked bulk frames. m is consumed (its head buffer released
// by the writer) whether or not the exchange succeeds; its segment
// spans alias the caller's argument slices, and RoundtripBulk does not
// return until the writer provably holds no reference to them — on
// success, abandonment (MsgBulkAbort covers a partially-sent stream),
// or session failure — so the caller may reuse the slices immediately
// after return.
func (s *Session) RoundtripBulk(ctx context.Context, m *protocol.BulkMsg) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	return s.RoundtripRetract(ctx, m, nil)
}

// RoundtripRetract is RoundtripBulk for a request its caller may learn,
// mid-upload, it need not have sent: closing retract asks for the
// stream back. Whether that is still possible is the writer's call, not
// a timer's, since only the one goroutine that puts the chunks on the
// wire knows whether the last has gone. If it has not, the stream ends
// there and the error is a Retracted: the request never completed at
// the peer and may be sent again in another form without running twice.
// If it has, the peer may already be executing, the retraction is void,
// and the reply is awaited exactly as if it had never been asked for.
func (s *Session) RoundtripRetract(ctx context.Context, m *protocol.BulkMsg, retract <-chan struct{}) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	return s.roundtripBulk(ctx, m, retract, &hold{settled: make(chan struct{})})
}

// roundtripBulk is RoundtripRetract on a given hold; only tests pass
// their own, to see the abandonment the writer sees.
func (s *Session) roundtripBulk(ctx context.Context, m *protocol.BulkMsg, retract <-chan struct{}, h *hold) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	p, err := s.post(ctx, Item{Type: m.Type, Bulk: m, hold: h})
	if err != nil {
		return 0, nil, nil, err
	}
	for {
		select {
		case r := <-p.ch:
			// A reply (or session failure) means the writer finished with
			// this send; it settles promptly, and waiting guarantees the
			// spans are unreferenced before the caller reuses them.
			s.awaitSettled(h)
			return r.Type, r.FB, r.Bulk, r.Err
		case <-ctx.Done():
			h.abandoned.Store(true)
			s.awaitSettled(h)
			return 0, nil, nil, s.deregister(ctx, p.seq, p.ch)
		case <-retract:
			h.abandoned.Store(true)
			s.awaitSettled(h)
			if !h.written {
				// Not written and nobody else to blame — the context
				// live, the session up — is the writer honouring the
				// abandonment.
				if err := s.deregister(ctx, p.seq, p.ch); err != nil {
					return 0, nil, nil, err
				}
				return 0, nil, nil, Retracted{h.sent}
			}
			retract = nil // too late: the whole request is the peer's
		}
	}
}

// awaitSettled blocks until the writer drops its references to a bulk
// send's spans. A stall past bulkAbandonStall means the writer is wedged
// in a connection write; failing the session closes the connection,
// which unblocks the write and makes the writer settle everything.
func (s *Session) awaitSettled(h *hold) {
	select {
	case <-h.settled:
		return
	case <-time.After(bulkAbandonStall):
		s.fail(fmt.Errorf("mux: bulk send stalled: %w", errSessionClosed))
	}
	<-h.settled
}

// deliver routes one complete reply to its waiting caller, releasing it
// if the sequence was abandoned. A reply the server aborted mid-stream
// (drain or internal failure) arrives as ErrAborted and fails just its
// own sequence, retryably.
func (s *Session) deliver(seq uint32, m Message) {
	s.mu.Lock()
	ch, ok := s.pending[seq]
	if ok {
		delete(s.pending, seq)
	}
	s.mu.Unlock()
	if !ok {
		// The caller abandoned this sequence (context ended).
		m.FB.Release()
		return
	}
	s.w.Expect()
	ch <- m
}

// readLoop runs ReadFrames until the connection dies, then fails the
// session with the cause.
func (s *Session) readLoop() {
	defer close(s.readDone)
	err := ReadFrames(s.conn, s.maxPayload, s.wants, s.deliver)
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF // mid-session close, not a clean end
	}
	s.fail(fmt.Errorf("mux: session read failed: %w", err))
}
