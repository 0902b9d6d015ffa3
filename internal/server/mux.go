package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// Multiplexed serving (protocol version 2). A lockstep connection
// reads a frame, fully services it, writes the reply, and only then
// reads the next — so one long dgefa call head-of-line-blocks every
// ping, list, and small call pipelined behind it, and N concurrent
// calls cost N connections. After a client negotiates the upgrade
// (MsgHello), the connection switches to serveMux, which runs the same
// engine the client's session does (internal/mux): mux.ReadFrames owns
// the read side, reassembling chunked bulk requests, and a mux.Writer
// owns the write side, coalescing small replies and streaming large
// ones (feature level 3) a bounded chunk per turn, so a LINPACK-sized
// result no longer head-of-line-blocks pipelined pings behind it. What
// is the server's own is the part in between: each complete request
// goes to the verb handler the lockstep framer also uses (handle,
// verbs.go), concurrently and bounded by a semaphore.
//
// Shared-writer invariant: dispatch goroutines must never write to the
// connection themselves — interleaved writes would corrupt the frame
// stream for every in-flight Seq. It holds by construction: the code
// that runs per request (muxDispatch, handle) is given the Writer and
// never has the connection in scope.

// DefaultMuxConcurrency bounds how many requests one multiplexed
// connection services concurrently. The bound is per connection: it
// caps dispatch goroutines (and admitted-but-queued jobs) a single
// pipelining client can hold open, while the PE pool still governs
// actual execution parallelism.
const DefaultMuxConcurrency = 64

// hello answers a MsgHello, the negotiation a connection opens with in
// lockstep framing. With multiplexing enabled it accepts the highest
// common version, and a nonzero second return tells the lockstep framer
// to hand the connection to serveMux at that feature level once the
// reply is written; a server configured lockstep-only answers like a
// pre-mux server (MsgError), which the client takes as "legacy peer,
// stay lockstep".
func (s *Server) hello(payload []byte) (reply, int) {
	req, err := protocol.DecodeHelloRequest(payload)
	if err != nil {
		return errReply(protocol.CodeBadArguments, err.Error()), 0
	}
	if s.cfg.DisableMux || req.MaxVersion < protocol.MuxVersion {
		return errReply(protocol.CodeInternal, fmt.Sprintf("unexpected frame %v", protocol.MsgHello)), 0
	}
	version := min(req.MaxVersion, protocol.MuxVersionCache)
	rep := protocol.HelloReply{Version: version, Epoch: s.epoch.Load()}
	if version >= protocol.MuxVersionCache && s.cache != nil {
		// Digest references are only legal once the server says its
		// cache is live; without the flag a level-4 connection is
		// bit-identical to level 3.
		rep.Flags |= protocol.HelloFlagArgCache
	}
	return reply{t: protocol.MsgHelloOK, fb: protocol.BufferFor(rep.Encode())}, int(version)
}

// bulkThreshold resolves the reply-chunking threshold; 0 disables.
func (s *Server) bulkThreshold() int {
	switch {
	case s.cfg.BulkThreshold < 0:
		return 0
	case s.cfg.BulkThreshold == 0:
		return protocol.DefaultBulkThreshold
	default:
		return s.cfg.BulkThreshold
	}
}

// serveMux services one upgraded connection until EOF or error, then
// waits for the requests still executing and flushes their replies
// (Writer.Close finishes half-streamed results rather than truncating
// them — a graceful drain depends on it).
func (s *Server) serveMux(conn net.Conn, client string, version int) {
	d := &muxDispatch{
		s:      s,
		client: client,
		cp: caps{
			level:   version,
			cacheOK: version >= protocol.MuxVersionCache && s.cache != nil,
		},
		// Every accepted frame was counted by replyPending; the writer
		// counts it off (replyDone) when its reply is settled — written,
		// or lost with the connection, where the client's retry path owns
		// recovery and Drain must not wait for it.
		w: mux.NewWriter(conn, version, func(err error) {
			s.logf("ninf server: mux write: %v", err)
		}, s.replyDone),
		sem: make(chan struct{}, DefaultMuxConcurrency),
	}
	err := mux.ReadFrames(conn, s.cfg.MaxPayload, nil, d.dispatch)
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		// Includes a duplicate seq, an oversize or a reassembly flood:
		// the stream is unsound, the connection is torn down.
		s.logf("ninf server: mux read: %v", err)
	}
	d.wg.Wait()
	d.w.Close()
}

// muxDispatch fans one multiplexed connection's requests out to handle
// and hands the replies to the connection's writer.
type muxDispatch struct {
	s      *Server
	client string
	cp     caps
	w      *mux.Writer
	sem    chan struct{} // one slot per request being serviced
	wg     sync.WaitGroup
}

// dispatch starts servicing one complete request. It runs on the read
// loop, so waiting for a semaphore slot is the backpressure on a client
// pipelining more than DefaultMuxConcurrency calls. A chunked request
// arrives here reassembled, exactly like a monolithic frame plus
// segment metadata.
func (d *muxDispatch) dispatch(seq uint32, m mux.Message) {
	if m.Err != nil {
		return // the client gave up mid-stream (context ended); no reply is owed
	}
	d.sem <- struct{}{}
	d.s.replyPending()
	d.w.Expect()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.sem }()
		r := d.s.handle(d.client, d.cp, m.Type, m.FB, m.Bulk)
		if err := d.w.Send(mux.Item{Type: r.t, Seq: seq, Frame: r.fb, Bulk: r.bulk, Sent: r.sent}, nil); err != nil {
			// The writer outlives every dispatch, so the one refusal is a
			// reply above the connection's level: a bug in handle, and the
			// connection fails rather than carry it.
			d.w.Fail(err)
		}
	}()
}
