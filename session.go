package ninf

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
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
// A session has one goroutine per stage, so exchanges that overlap on it
// queue behind one another's wake-ups on one P however many cores are
// idle (EXPERIMENTS.md "Why one session trails two"). A client whose
// calls overlap therefore holds several: session() hands each exchange
// the live session with the fewest in flight, and opens a further one
// only when every live one is busy and there are fewer than GOMAXPROCS.
// A client that never overlaps calls holds exactly one socket: the
// connection NewClient dials eagerly seeds the pool and the first
// session is negotiated on it. What the client knows of the server — the
// warm-digest set, the epoch, the retry budget — is per client, since
// the server's cache and job table are per server; what a handshake
// answered — version and capability flags — is per session.

// A live is one negotiated session and what is per session about it.
type live struct {
	sess  *mux.Session
	conn  net.Conn // its transport, checked out of the pool so closeAll severs it
	flags uint32   // its HelloReply capability flags
}

// sessionState holds the client's multiplexing state; embedded in
// Client so the zero value (mux on, not yet probed) is ready to use.
type sessionState struct {
	mu      sync.Mutex
	live    []live
	turn    uint          // where the next scan for the least-loaded session starts
	opening chan struct{} // non-nil while a handshake runs (one at a time); closed when it ends
	gen     int           // counts retire-alls: a handshake that straddles one is not installed
	max     int           // tests pin the session count; 0 means GOMAXPROCS
	legacy  bool          // peer answered Hello as a version-1 server; sticky until SetMultiplexing(true)
	off     bool          // SetMultiplexing(false)
}

// SetMultiplexing toggles the multiplexed session layer. It is on by
// default: the client probes the server's protocol version on first
// use and falls back to lockstep exchanges against legacy servers
// automatically. Passing false closes every live session and keeps the
// client on pooled lockstep connections (useful for A/B measurement and
// as an escape hatch); passing true re-enables probing, including
// against a peer previously seen as legacy (it may have been upgraded
// since).
func (c *Client) SetMultiplexing(on bool) {
	c.sess.mu.Lock()
	c.sess.off = !on
	c.sess.legacy = false
	c.sess.mu.Unlock()
	c.retire(nil)
}

// retire detaches only — or, given nil, every session: Client.Close, a
// registered callback, SetMultiplexing, a legacy answer — from the
// client and closes it, returning its transport to the pool's books
// (discard: the stream carries interleaved mux frames and must never be
// reused). Exchanges in flight on a retired session fail retryably;
// those on the others are untouched.
func (c *Client) retire(only *mux.Session) {
	st := &c.sess
	st.mu.Lock()
	var out []live
	st.live = slices.DeleteFunc(st.live, func(l live) bool {
		if only != nil && l.sess != only {
			return false
		}
		out = append(out, l)
		return true
	})
	if only == nil {
		st.gen++
	}
	st.mu.Unlock()
	for _, l := range out {
		l.sess.Close()
		c.pool.discard(l.conn)
	}
}

// Multiplexed reports whether the client currently holds a live
// multiplexed session. It is false until a session verb runs (the
// probe is lazy), and false forever against a legacy server.
func (c *Client) Multiplexed() bool {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	for _, l := range c.sess.live {
		if !l.sess.Broken() {
			return true
		}
	}
	return false
}

// pick returns the live session with the fewest exchanges in flight and
// that count — or the first broken one it meets, with -1, for the caller
// to retire. Ties go to the session after the one the last pick began
// at, not to the lowest index: closed-loop callers finish in step and
// find every session idle together, and all would land on session 0.
func (st *sessionState) pick() (s *mux.Session, load int) {
	st.turn++
	for i := range st.live {
		l := st.live[(st.turn+uint(i))%uint(len(st.live))].sess
		if l.Broken() {
			return l, -1
		}
		if n := l.InFlight(); s == nil || n < load {
			s, load = l, n
		}
	}
	return s, load
}

// session picks the transport for one exchange: a live multiplexed
// session, or nil for a pooled lockstep connection. nil means
// multiplexing is off, the peer is legacy, the client has callbacks
// registered (the §2.3 callback facility needs the quiet parked stream
// of a lockstep call and cannot share a connection carrying interleaved
// sequenced frames), or — with negotiate false — no session is up yet.
// The data verbs pass negotiate true: with no session live the first of
// them dials and negotiates one under its ctx while the rest wait for
// that handshake, and when every live session already has an exchange
// in flight one more is opened behind the caller's back, which goes out
// on the least loaded at once — no call waits for a dial it did not
// need. Interface and control verbs pass false: they ride a session for
// free but must not force (or block on) a handshake for an exchange any
// pooled connection serves equally well.
func (c *Client) session(ctx context.Context, negotiate bool) (*mux.Session, error) {
	if c.hasCallbacks() {
		return nil, nil
	}
	st := &c.sess
	for {
		st.mu.Lock()
		if st.off || st.legacy {
			st.mu.Unlock()
			return nil, nil
		}
		s, load := st.pick()
		if load < 0 {
			st.mu.Unlock()
			c.retire(s)
			continue
		}
		opening, gen := st.opening, st.gen
		open := negotiate && opening == nil && (s == nil || load > 0 && len(st.live) < st.limit())
		if open {
			st.opening = make(chan struct{})
		}
		st.mu.Unlock()
		switch {
		case open && s != nil:
			go c.open(context.Background(), gen)
			return s, nil
		case open:
			if err := c.open(ctx, gen); err != nil {
				return nil, err
			}
		case s != nil || !negotiate:
			return s, nil
		default:
			select {
			case <-opening:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// limit is the most sessions the client holds: one per P, because the
// convoy a further session breaks up is per P.
func (st *sessionState) limit() int {
	if st.max > 0 {
		return st.max
	}
	return runtime.GOMAXPROCS(0)
}

// open dials and negotiates one session and installs it, outside the
// state mutex: callers that can ride a live session never wait for it.
// ctx bounds the handshake; Client.Close severs it too. A session that
// finishes negotiating after a retire-all is retired, not installed, and
// a legacy answer takes the client off every session it holds.
func (c *Client) open(ctx context.Context, gen int) error {
	l, err := c.handshake(ctx)
	legacy := errors.Is(err, mux.ErrLegacy)
	st := &c.sess
	st.mu.Lock()
	stale := st.gen != gen
	if err == nil && !stale {
		st.live = append(st.live, l)
	}
	st.legacy = st.legacy || legacy
	close(st.opening)
	st.opening = nil
	st.mu.Unlock()
	switch {
	case legacy:
		c.retire(nil)
		return nil
	case err == nil && stale:
		l.sess.Close()
		c.pool.discard(l.conn)
	}
	return err
}

// handshake checks a connection out of the pool and negotiates a session
// on it. Checked out, the connection is on the pool's active books:
// Close's pool.closeAll severs a handshake blocked against a dead
// server, and severs the session transport itself later — it stays
// checked out for the session's whole life.
func (c *Client) handshake(ctx context.Context) (live, error) {
	conn, err := c.pool.get()
	if err != nil {
		return live{}, err
	}
	stop := guardConn(ctx, conn)
	hello, err := mux.NegotiateHello(conn, c.maxPayload)
	fired := !stop()
	switch {
	case fired && err == nil:
		err = ctx.Err()
	case fired:
		err = ctxErr(ctx, err)
	case errors.Is(err, mux.ErrLegacy):
		// The refused Hello was a complete lockstep exchange, so the
		// connection is still in frame sync — back to the pool with it.
		c.pool.put(conn)
		return live{}, err
	case err == nil:
		// The hello reply carries the server's incarnation epoch (0 from
		// journal-less or pre-epoch servers); noting it here is how the
		// client detects a restart at the first exchange after a re-dial,
		// before any digest reference or data handle can hit the reborn
		// (empty) cache.
		c.noteEpoch(hello.Epoch)
		return live{mux.New(conn, c.maxPayload, int(hello.Version)), conn, hello.Flags}, nil
	}
	c.pool.discard(conn)
	return live{}, err
}

// cacheOn reports whether sess negotiated feature level 4 against a
// server advertising a live argument cache, with digest references
// enabled on this client. Only then may digest or retain framing
// appear on the wire; anywhere below, the byte stream is bit-identical
// to level 3.
func (c *Client) cacheOn(sess *mux.Session) bool {
	if sess == nil || c.noArgCache.Load() || sess.Version() < protocol.MuxVersionCache {
		return false
	}
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	for _, l := range c.sess.live {
		if l.sess == sess {
			return l.flags&protocol.HelloFlagArgCache != 0
		}
	}
	return false
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
	} else if err != nil && sess.Broken() {
		c.retire(sess)
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
	level := 0 // a pooled lockstep connection
	if sess != nil {
		level = sess.Version()
	}
	thr := c.bulkThreshold()
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
		}
	}
	shape := protocol.NewShape(level, cacheOK, thr, digs, warm)
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
				shape, unknown = protocol.NewShape(level, cacheOK, thr, digs, sp.warm), false
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
