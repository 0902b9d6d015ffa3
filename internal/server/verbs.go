package server

import (
	"context"
	"fmt"

	"ninf/internal/protocol"
)

// One verb handler, two framers. handle turns one request frame into
// one reply and never sees the connection; the lockstep loop
// (ServeConn) and the multiplexed loop (serveMux) only move frames:
// they read a request, call handle, put the reply on the wire, and run
// its sent hook once the write succeeded. Anything a verb decides —
// decoding, admission, error codes, what a fetch delivers — lives here,
// so the two framings cannot answer the same request differently
// (TestVerbParity holds them to that).

// reply is one verb's answer awaiting a framer. Exactly one of fb (a
// complete frame payload) or bulk (a reply the mux writer streams in
// chunks; only produced for peers that negotiated bulk) is set. sent,
// when non-nil, runs after the reply is confirmed written — the hook
// fetch uses to keep its job until the reply is really on the wire (a
// reply lost with the connection must leave the job fetchable).
type reply struct {
	t    protocol.MsgType
	fb   *protocol.Buffer
	bulk *protocol.BulkMsg
	sent func()
}

// caps is what the connection's framing lets a verb do.
type caps struct {
	level   int  // negotiated feature level; 0 on a lockstep connection
	cacheOK bool // digest references and data handles are live (level 4, cache on)
	// callback reaches the calling client while a blocking call runs.
	// Only a lockstep connection has one: its stream is quiet while the
	// serving goroutine is parked on the task, which the §2.3 callback
	// exchange needs. Multiplexed connections carry interleaved
	// sequenced frames, so executables that call back there get
	// ErrNoCallback (clients with registered callbacks stay lockstep).
	callback CallbackInvoker
}

// errReply builds a MsgError reply.
func errReply(code uint32, detail string) reply {
	return errReplyHint(code, detail, 0)
}

// errReplyHint is errReply carrying a retry-after hint on overload
// rejections.
func errReplyHint(code uint32, detail string, retryAfterMillis uint32) reply {
	return reply{t: protocol.MsgError, fb: protocol.BufferFor(protocol.EncodeErrorReplyHint(code, detail, retryAfterMillis))}
}

// handle services one request. It owns fb and releases it once the
// payload is decoded — before waiting on execution, so a large argument
// frame is not pinned while the executable runs (admit copies every
// argument out, reassembled bulk requests included). bulk carries the
// segment metadata of a reassembled chunked request. On a multiplexed
// connection any number of handles run concurrently, which is why
// nothing here may touch the connection: replies go back through the
// framer's single writer.
func (s *Server) handle(client string, cp caps, typ protocol.MsgType, fb *protocol.Buffer, bulk *protocol.BulkInfo) reply {
	payload := fb.Payload()
	if bulk != nil {
		if typ != protocol.MsgCall && typ != protocol.MsgSubmit {
			fb.Release()
			return errReply(protocol.CodeBadArguments, fmt.Sprintf("unexpected bulk frame %v", typ))
		}
		payload = bulk.Head()
	}
	switch typ {
	case protocol.MsgPing:
		fb.Release()
		return reply{t: protocol.MsgPong, fb: protocol.AcquireBuffer(0)}

	case protocol.MsgList:
		fb.Release()
		names := protocol.ListReply{Names: s.registry.Names()}
		return reply{t: protocol.MsgListReply, fb: protocol.BufferFor(names.Encode())}

	case protocol.MsgStats:
		fb.Release()
		st := s.Stats()
		return reply{t: protocol.MsgStatsOK, fb: protocol.BufferFor(st.Encode())}

	case protocol.MsgTrace:
		fb.Release()
		return reply{t: protocol.MsgTraceOK, fb: protocol.BufferFor(encodeTraces(s.Trace()))}

	case protocol.MsgInterface:
		req, err := protocol.DecodeInterfaceRequest(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		ex := s.registry.Lookup(req.Name)
		if ex == nil {
			return errReply(protocol.CodeUnknownRoutine, fmt.Sprintf("no routine %q", req.Name))
		}
		p, err := protocol.EncodeInterfaceReply(ex.Info)
		if err != nil {
			return errReply(protocol.CodeInternal, err.Error())
		}
		return reply{t: protocol.MsgInterfaceOK, fb: protocol.BufferFor(p)}

	case protocol.MsgCall:
		var ctx context.Context // nil: admit runs the call under the server's base context
		if cp.callback != nil {
			ctx = context.WithValue(s.baseCtx, callbackKey, cp.callback)
		}
		bulk = s.attachCache(bulk, payload, cp.cacheOK)
		t, code, hint, err := s.admit(payload, bulk, false, ctx, 0, client)
		fb.Release()
		if err != nil {
			return errReplyHint(code, err.Error(), hint)
		}
		<-t.done
		// The task is over and this goroutine is the last reader of its
		// arguments: whichever way out, their pooled arrays go back.
		defer t.releaseArrays()
		if t.err != nil {
			return errReplyHint(t.failCode(), t.err.Error(), t.retryAfter)
		}
		bm, rb, err := protocol.EncodeReply(t.ex.Info, t.timings, t.args, protocol.NewShape(cp.level, cp.cacheOK, s.bulkThreshold(), nil, nil))
		if err != nil {
			return errReply(protocol.CodeInternal, err.Error())
		}
		if bm != nil {
			// Large results stream back chunked; the BulkMsg's segment
			// spans alias t.args, which stay live (and unmutated — the
			// task is complete) until the writer finishes with them. So
			// the message takes the arrays along, and its Release — the
			// writer settling it, written or not — returns them.
			bm.Adopt(t.arrays)
			t.arrays = nil
		}
		return reply{t: protocol.MsgCallOK, fb: rb, bulk: bm}

	case protocol.MsgSubmit:
		key, rest, err := protocol.DecodeSubmitKey(payload)
		if err != nil {
			fb.Release()
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		bulk = s.attachCache(bulk, rest, cp.cacheOK)
		t, code, hint, err := s.admit(rest, bulk, true, nil, key, client)
		fb.Release()
		if err != nil {
			return errReplyHint(code, err.Error(), hint)
		}
		// No SubmitOK before the submit record is in the log. A retried
		// submit answered with the job already admitted waits for the
		// original's record too.
		s.journalCommit(t.submitTicket)
		sr := protocol.SubmitReply{JobID: t.job.ID}
		return reply{t: protocol.MsgSubmitOK, fb: protocol.BufferFor(sr.Encode())}

	case protocol.MsgFetch:
		req, err := protocol.DecodeFetchRequest(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		return s.fetch(req, cp.level >= protocol.MuxVersionBulk)

	case protocol.MsgCallDigest:
		digs, err := protocol.DecodeDigestQuery(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		if !cp.cacheOK {
			return errReply(protocol.CodeInternal, "argument cache disabled")
		}
		warm := make([]bool, len(digs))
		for i, d := range digs {
			warm[i] = s.cache.contains(d)
		}
		return reply{t: protocol.MsgDigestStatus, fb: protocol.EncodeDigestStatusBuf(warm)}

	case protocol.MsgDataHandle:
		d, err := protocol.DecodeDataHandleRequest(payload)
		fb.Release()
		if err != nil {
			return errReply(protocol.CodeBadArguments, err.Error())
		}
		if !cp.cacheOK {
			return errReply(protocol.CodeInternal, "argument cache disabled")
		}
		b, ok := s.cache.get(d)
		if !ok {
			return errReply(protocol.CodeCacheMiss, fmt.Sprintf("no cached value %v", d))
		}
		return reply{t: protocol.MsgDataHandleOK, fb: protocol.EncodeDataHandleReplyBuf(d, b)}

	default:
		fb.Release()
		return errReply(protocol.CodeInternal, fmt.Sprintf("unexpected frame %v", typ))
	}
}

// attachCache gives a level-4 call's decode a per-call cache view: the
// resolver that answers digest markers (pinning what it resolves) and
// retains uploaded segments. A monolithic frame gets a synthesized
// BulkInfo — digest markers carry no offsets, so a head-only Base is
// sound, and inline arrays take the non-marker decode path untouched.
// Below level 4 (or with the cache off) bulk passes through unchanged
// and decode rejects any digest marker.
func (s *Server) attachCache(bulk *protocol.BulkInfo, head []byte, cacheOK bool) *protocol.BulkInfo {
	if !cacheOK {
		return bulk
	}
	if bulk == nil {
		bulk = &protocol.BulkInfo{Base: head, HeadLen: len(head)}
	}
	bulk.Resolver = &callPins{c: s.cache}
	return bulk
}

// fetch answers a MsgFetch: unknown job, not ready, the job's error, or
// its retained result. Whatever the job's outcome, delivering it rides
// the reply's sent hook: the job is marked delivered only once the
// framer has the reply on the wire, so a reply lost with the connection
// leaves the job fully fetchable for the client's retried fetch. A
// delivered job is not consumed on the spot either — a locally
// successful write can still be lost in transit — it lingers
// re-fetchable for Config.DeliveredTTL (see markDelivered), so
// the retry re-reads the retained result instead of getting
// CodeUnknownJob and re-executing the work through an idempotent
// re-Submit. Large stored results stream back chunked where the peer
// allows it (the BulkMsg aliases the job's pre-encoded reply, which the
// linger keeps live until well past the write).
func (s *Server) fetch(req protocol.FetchRequest, bulkOK bool) reply {
	s.mu.Lock()
	t, ok := s.jobs[req.JobID]
	s.mu.Unlock()
	if !ok {
		return errReply(protocol.CodeUnknownJob, fmt.Sprintf("no job %d", req.JobID))
	}
	if req.Wait {
		<-t.done
	}
	select {
	case <-t.done:
	default:
		return errReply(protocol.CodeNotReady, fmt.Sprintf("job %d still running", req.JobID))
	}
	var r reply
	if t.err != nil {
		r = errReplyHint(t.failCode(), t.err.Error(), t.retryAfter)
	} else if thr := s.bulkThreshold(); bulkOK && thr > 0 && len(t.reply) >= thr {
		r = reply{t: protocol.MsgFetchOK, bulk: protocol.RawBulkMsg(protocol.MsgFetchOK, t.reply)}
	} else {
		r = reply{t: protocol.MsgFetchOK, fb: protocol.BufferFor(t.reply)}
	}
	r.sent = func() { s.markDelivered(req.JobID, t) }
	return r
}
