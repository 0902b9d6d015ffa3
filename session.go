package ninf

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// One exchange path. Every client verb is "prepare the request, run
// exchange, decode the reply"; exchange is the only code that moves a
// frame to the server and a reply back, and the only place a MsgError
// frame becomes a *protocol.RemoteError. What varies is the transport
// it is handed, and that is decided by what the client has observed,
// never by which verb is running:
//
//   - A live multiplexed session (protocol version 2, internal/mux)
//     carries everything: requests from any number of goroutines are
//     pipelined over one connection, coalesced into vectored writes and
//     demultiplexed by sequence number on return. Call, CallAsync,
//     Submit, Fetch and FetchData negotiate a session when none is live;
//     Interface, Ping, List, Stats and Trace ride one that exists but
//     never dial for one.
//   - Otherwise — SetMultiplexing(false), a legacy peer, callbacks
//     registered, or simply no session yet — the exchange checks one
//     connection out of the pool, runs a single lockstep request/reply on
//     it under the caller's context, and pools or discards it.
//
// The connection NewClient dials eagerly seeds the pool, and a session
// is negotiated on a pooled connection, so a multiplexing client holds
// exactly one socket per server once its session is up.

// sessionState holds the client's multiplexing state; embedded in
// Client so the zero value (mux on, not yet probed) is ready to use.
type sessionState struct {
	mu     sync.Mutex
	sess   *mux.Session
	conn   net.Conn // the session's transport, checked out of the pool so closeAll severs it
	legacy bool     // peer answered Hello as a version-1 server; sticky until SetMultiplexing(true)
	off    bool     // SetMultiplexing(false)
	flags  uint32   // HelloReply capability flags of the live session
}

// SetMultiplexing toggles the multiplexed session layer. It is on by
// default: the client probes the server's protocol version on first
// use and falls back to lockstep exchanges against legacy servers
// automatically. Passing false closes any live session and keeps the
// client on pooled lockstep connections (useful for A/B measurement and
// as an escape hatch); passing true re-enables probing, including
// against a peer previously seen as legacy (it may have been upgraded
// since).
func (c *Client) SetMultiplexing(on bool) {
	c.sess.mu.Lock()
	s, conn := c.sess.sess, c.sess.conn
	c.sess.sess, c.sess.conn = nil, nil
	c.sess.off = !on
	c.sess.legacy = false
	c.sess.mu.Unlock()
	retireSession(c, s, conn)
}

// retireSession closes a session detached from the client state and
// returns its transport to the pool's books (discard: the stream
// carries interleaved mux frames and must never be reused).
func retireSession(c *Client, s *mux.Session, conn net.Conn) {
	if s != nil {
		s.Close()
	}
	if conn != nil {
		c.pool.discard(conn)
	}
}

// Multiplexed reports whether the client currently holds a live
// multiplexed session. It is false until a session verb runs (the
// probe is lazy), and false forever against a legacy server.
func (c *Client) Multiplexed() bool {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	return c.sess.sess != nil && !c.sess.sess.Broken()
}

// closeSession tears down the live session, if any, as part of
// Client.Close.
func (c *Client) closeSession() {
	c.sess.mu.Lock()
	s, conn := c.sess.sess, c.sess.conn
	c.sess.sess, c.sess.conn = nil, nil
	c.sess.mu.Unlock()
	retireSession(c, s, conn)
}

// session picks the transport for one exchange: the live multiplexed
// session, or nil for a pooled lockstep connection. nil means
// multiplexing is off, the peer is legacy, the client has callbacks
// registered (the §2.3 callback facility needs the quiet parked stream
// of a lockstep call and cannot share a connection carrying interleaved
// sequenced frames), or — with negotiate false — no session is up yet.
// The data verbs pass negotiate true and get a session dialed and
// negotiated when none is live; interface and control verbs pass false:
// they ride a session for free but must not force (or block on) a
// handshake for an exchange any pooled connection serves equally well.
// ctx bounds only the dial+negotiate handshake.
func (c *Client) session(ctx context.Context, negotiate bool) (*mux.Session, error) {
	if c.hasCallbacks() {
		return nil, nil
	}
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	if c.sess.off || c.sess.legacy {
		return nil, nil
	}
	if s := c.sess.sess; s != nil {
		if !s.Broken() {
			return s, nil
		}
		conn := c.sess.conn
		c.sess.sess, c.sess.conn = nil, nil
		//lint:ninflint locknet — the session is already Broken: Close and discard on its dead socket return immediately
		retireSession(c, s, conn)
	}
	if !negotiate {
		return nil, nil
	}
	// Checking the connection out of the pool keeps it on the active
	// books: Close's pool.closeAll severs a handshake blocked against a
	// dead server, and severs the session transport itself later — the
	// connection stays checked out for the session's whole life.
	// sess.mu serializes session (re)establishment; pool.closeAll and
	// guardConn both sever a handshake blocked under it.
	conn, err := c.pool.get()
	if err != nil {
		return nil, err
	}
	//lint:ninflint locknet — guardConn only registers a context callback; it performs no socket I/O
	stop := guardConn(ctx, conn)
	//lint:ninflint locknet — negotiation must finish before any verb uses the session; the guard (and Close) severs a black-holed handshake
	hello, err := mux.NegotiateHello(conn, c.maxPayload)
	if !stop() {
		//lint:ninflint locknet — discard only closes the socket (non-blocking) and updates the pool books
		c.pool.discard(conn)
		if err != nil {
			return nil, ctxErr(ctx, err)
		}
		return nil, ctx.Err()
	}
	if errors.Is(err, mux.ErrLegacy) {
		// The refused Hello was a complete lockstep exchange, so the
		// connection is still in frame sync — back to the pool with it.
		c.sess.legacy = true
		c.pool.put(conn)
		return nil, nil
	}
	if err != nil {
		//lint:ninflint locknet — discard only closes the socket (non-blocking) and updates the pool books
		c.pool.discard(conn)
		return nil, err
	}
	// The hello reply carries the server's incarnation epoch (0 from
	// journal-less or pre-epoch servers); noting it here is how the
	// client detects a restart at the first exchange after a re-dial,
	// before any digest reference or data handle can hit the reborn
	// (empty) cache.
	c.noteEpoch(hello.Epoch)
	//lint:ninflint locknet — New only starts the session goroutines; it performs no blocking socket I/O itself
	s := mux.New(conn, c.maxPayload, int(hello.Version))
	c.sess.sess, c.sess.conn, c.sess.flags = s, conn, hello.Flags
	return s, nil
}

// cacheOn reports whether sess negotiated feature level 4 against a
// server advertising a live argument cache, with digest references
// enabled on this client. Only then may digest or retain framing
// appear on the wire; anywhere below, the byte stream is bit-identical
// to level 3.
func (c *Client) cacheOn(sess *mux.Session) bool {
	if sess == nil || c.noArgCache.Load() || !sess.Cache() {
		return false
	}
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	return c.sess.sess == sess && c.sess.flags&protocol.HelloFlagArgCache != 0
}

// dropSession retires s if it is still the client's current session
// and has failed; the next session() call dials afresh.
func (c *Client) dropSession(s *mux.Session) {
	if !s.Broken() {
		return
	}
	c.sess.mu.Lock()
	var conn net.Conn
	if c.sess.sess == s {
		conn = c.sess.conn
		c.sess.sess, c.sess.conn = nil, nil
	}
	c.sess.mu.Unlock()
	retireSession(c, s, conn)
}

// request is one encoded request awaiting a transport — the client-side
// mirror of the server's reply. Exactly one of fb (a complete frame
// payload) or bulk (a message the session streams in chunks; built only
// for sessions that negotiated bulk) is set; closing retract, if set,
// asks for a bulk stream back (mux.Session.RoundtripRetract).
type request struct {
	t       protocol.MsgType
	fb      *protocol.Buffer
	bulk    *protocol.BulkMsg
	retract <-chan struct{}
}

// exchange runs one request/reply exchange on the transport session
// picked: sess if non-nil, else a pooled connection for one lockstep
// round trip. It consumes the request whatever the outcome, and returns
// the reply in a pooled buffer the caller must Release after decoding;
// a non-nil BulkInfo means the peer streamed it chunked.
//
// Errors: a MsgError reply comes back as *protocol.RemoteError (this is
// the one place that translation happens, so every verb on every
// transport sees the server's code, detail and retry-after hint alike).
// A transport fault fails the session — the next session() call dials
// afresh — or discards the pooled connection; either way it surfaces as
// a retryable error for the enclosing withRetry. ctx bounds the whole
// exchange: on a session it abandons this sequence only, on a pooled
// connection the guard severs the socket, so even a black-holed read
// returns within the caller's deadline.
func (c *Client) exchange(ctx context.Context, sess *mux.Session, rq request) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	var (
		rt protocol.MsgType
		//lint:ninflint releasecheck — assigned in the transport switch, settled after it: released if a MsgError, nil after any other error, else returned
		fb   *protocol.Buffer
		bulk *protocol.BulkInfo
		err  error
		conn net.Conn
		stop func() bool
	)
	switch {
	case rq.bulk != nil:
		//lint:ninflint featgate — a bulk request exists only where send built one, under sess.Bulk() or a live cache
		rt, fb, bulk, err = sess.RoundtripRetract(ctx, rq.bulk, rq.retract)
	case sess != nil:
		rt, fb, bulk, err = sess.Roundtrip(ctx, rq.t, rq.fb)
	default:
		if conn, err = c.pool.get(); err != nil {
			rq.fb.Release()
			return 0, nil, nil, err
		}
		stop = guardConn(ctx, conn)
		err = protocol.WriteFrameBuf(conn, rq.t, rq.fb)
		rq.fb.Release()
		// While a blocking call's executable runs, the server may
		// interleave MsgCallback frames before the final reply; each is
		// answered inline on the same quiet connection.
		for err == nil {
			rt, fb, err = protocol.ReadFrameBuf(conn, c.maxPayload)
			if err != nil || rt != protocol.MsgCallback {
				break
			}
			err = c.answerCallback(conn, fb.Payload())
			fb.Release()
			fb = nil
		}
	}
	if err == nil && rt == protocol.MsgError {
		var er protocol.ErrorReply
		er, err = protocol.DecodeErrorReply(fb.Payload())
		fb.Release()
		fb = nil
		if err == nil {
			err = &protocol.RemoteError{Code: er.Code, Detail: er.Detail, RetryAfterMillis: er.RetryAfterMillis}
		}
	}
	if sess == nil {
		err = c.releaseGuarded(ctx, conn, stop, err)
	} else if err != nil {
		c.dropSession(sess)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	return rt, fb, bulk, nil
}

// query is the shape of every verb whose request is encoded before the
// transport is known and whose reply has one acceptable type: pick the
// transport, exchange, check. It consumes req.
func (c *Client) query(ctx context.Context, negotiate bool, t protocol.MsgType, req *protocol.Buffer, want protocol.MsgType) (*protocol.Buffer, *protocol.BulkInfo, error) {
	sess, err := c.session(ctx, negotiate)
	if err != nil {
		req.Release()
		return nil, nil, err
	}
	rt, fb, bulk, err := c.exchange(ctx, sess, request{t: t, fb: req})
	if err != nil {
		return nil, nil, err
	}
	if rt != want {
		fb.Release()
		return nil, nil, fmt.Errorf("ninf: unexpected reply %v to %v", rt, t)
	}
	return fb, bulk, nil
}

// send encodes one call or submit request for the transport and runs
// the exchange. Encoding happens here — once the transport's
// capabilities are known — so nothing is marshalled twice: the shape
// says where the session lets arrays go, and one encode follows it. On a
// session that negotiated bulk streaming an array crossing the client's
// threshold is written zero-copy from the caller's slice; against a live
// argument cache one the client knows the server to hold shrinks to its
// digest; on a pooled lockstep connection everything is inline in one
// frame.
//
// An array whose digest the client has no knowledge of is uploaded and
// asked about at once: the MsgCallDigest query is queued just ahead of
// the stream, and its answer arrives one round trip later with the
// upload under way. Cold, as a first upload is, it changes nothing and
// the call cost no round trip more than a plain one. Warm — another
// client put the array there — the stream is asked back; the session's
// writer alone knows whether its last chunk has left, so it decides: a
// stream it can still abort was never a request, and the call goes again
// with the 20-byte marker; one it has finished is the call, and its
// reply is awaited. Either way the routine runs once.
func (c *Client) send(ctx context.Context, sess *mux.Session, t protocol.MsgType, info *idl.Info, creq *protocol.CallRequest, key uint64, rep *Report) (protocol.MsgType, *protocol.Buffer, *protocol.BulkInfo, error) {
	var shape protocol.Shape
	thr := c.bulkThreshold()
	if sess != nil && sess.Bulk() {
		shape = protocol.BulkShape(thr)
	}
	var digs []protocol.Digest
	var warm []bool
	unknown := false
	cacheOK := c.cacheOn(sess)
	if cacheOK {
		// Retain rides every shape, not just the digest one: the server
		// may refuse the warmth query and still hold a cache.
		creq.Retain = c.retainRes.Load()
		if digs, _ = protocol.CallRequestDigests(info, creq, thr); len(digs) > 0 {
			warm, unknown = c.warmth(digs)
			shape = protocol.DigestShape(thr, digs, warm)
		}
	}
	for {
		rq := request{t: t}
		var err error
		if rq.bulk, rq.fb, err = protocol.EncodeRequest(info, t, creq, key, shape); err != nil {
			return 0, nil, nil, err
		}
		if rq.bulk != nil {
			rep.BytesOut = int64(rq.bulk.Total())
		} else {
			rep.BytesOut = int64(rq.fb.Len())
		}
		var sp *speculation
		if cacheOK && unknown {
			sp = c.speculate(ctx, sess, digs, warm)
			rq.retract = sp.retract
		}
		rt, fb, bulk, err := c.exchange(ctx, sess, rq)
		if sp != nil {
			<-sp.done
			if r := (mux.Retracted{}); errors.As(err, &r) {
				// Never a request, so this is no second attempt: the same
				// call, in the shape the answer gives it.
				rep.Retracted = int64(r.Sent)
				//lint:ninflint featgate — sp is set only under cacheOK
				shape, unknown = protocol.DigestShape(thr, digs, sp.warm), false
				//lint:ninflint releasecheck — an exchange that ended Retracted returned no buffer
				continue
			}
			if sp.refused {
				// The server answered but will not play (e.g. its cache was
				// disabled across a restart): what went out was a plain
				// level-3 call, and it taught nothing about any cache.
				return rt, fb, bulk, err
			}
		}
		// On success every digest is warm — the server pinned resolved
		// entries for the call and retained uploaded segments. A
		// CodeCacheMiss (eviction raced the warmth knowledge) voids what
		// was believed of the digests this call named, and no others; the
		// error is retryable, and the retry asks and uploads afresh.
		var re *protocol.RemoteError
		switch {
		case len(digs) == 0:
		case err == nil:
			c.markWarm(digs)
		case errors.As(err, &re) && re.Code == protocol.CodeCacheMiss:
			c.forgetWarm(digs)
		}
		return rt, fb, bulk, err
	}
}

// A speculation is the warmth query travelling beside the upload it may
// make unnecessary. Its watcher closes retract when the answer finds
// resident an array the upload is carrying, and done when it is through
// with the answer — after which warm (the answer, when it was one) and
// refused (it was an error frame) are the sender's to read.
type speculation struct {
	retract, done chan struct{}
	warm          []bool
	refused       bool
}

// speculate queues the MsgCallDigest query for digs — before the caller
// queues the upload, so that is the order they reach the wire in — and
// starts the watcher. sent[i] says digs[i] is going as a marker already.
// A query that cannot be queued, or is never answered, retracts nothing:
// the session is failing or ctx over, and the upload reports that itself.
func (c *Client) speculate(ctx context.Context, sess *mux.Session, digs []protocol.Digest, sent []bool) *speculation {
	sp := &speculation{retract: make(chan struct{}), done: make(chan struct{})}
	q, err := sess.Post(ctx, protocol.MsgCallDigest, protocol.EncodeDigestQueryBuf(digs))
	if err != nil {
		close(sp.done)
		return sp
	}
	go func() {
		defer close(sp.done)
		t, fb, _, err := q.Wait(ctx)
		if err != nil {
			return
		}
		defer fb.Release()
		if sp.refused = t != protocol.MsgDigestStatus; sp.refused {
			return
		}
		if sp.warm, err = protocol.DecodeDigestStatus(fb.Payload()); err != nil || len(sp.warm) != len(digs) {
			return
		}
		for i := range digs {
			if sp.warm[i] && !sent[i] {
				close(sp.retract)
				return
			}
		}
	}()
	return sp
}

// finish decodes one call or fetch reply — the same payload, whatever
// carried it — into the caller's destinations and completes the report,
// consuming the reply buffer. A non-nil bulk means the reply was a
// reassembled chunked message: the XDR head is its prefix and marked
// arrays decode from raw segments. Array results are converted straight
// into the slices the caller passed; a reply that fails to decode has
// written to none of them, so the retry layer can send the same
// arguments again.
func finish(rep *Report, info *idl.Info, vals []idl.Value, args []any, reply *protocol.Buffer, bulk *protocol.BulkInfo) (*Report, error) {
	defer reply.Release()
	rep.Received = time.Now()
	rep.BytesIn = int64(reply.Len())
	p := reply.Payload()
	if bulk != nil {
		p = bulk.Head()
	}
	tm, out, err := protocol.DecodeCallReplyInto(info, vals, args, p, bulk)
	if err != nil {
		return nil, err
	}
	rep.Enqueue = time.Unix(0, tm.Enqueue)
	rep.Dequeue = time.Unix(0, tm.Dequeue)
	rep.Complete = time.Unix(0, tm.Complete)
	if err := storeResults(info, args, out); err != nil {
		return nil, err
	}
	return rep, nil
}

// hasCallbacks reports whether any client callback is registered.
func (c *Client) hasCallbacks() bool {
	c.cb.mu.RLock()
	defer c.cb.mu.RUnlock()
	return len(c.cb.fns) > 0
}
