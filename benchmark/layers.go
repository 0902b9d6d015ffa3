package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/idl"
	"ninf/internal/mux"
	"ninf/internal/protocol"
	"ninf/internal/server/journal"
	"ninf/internal/xdr"
)

// Standalone layer timings: each layer's public functions called from
// here, alone, with the message shapes of the workload being traced.

// callShape is one call of a workload as the layers below the client
// see it.
type callShape struct {
	routine  string
	args     []idl.Value // one per IDL parameter; out-only entries nil
	lockstep bool        // version-1 framing on a private connection
	submit   bool        // MsgSubmit then MsgFetch, not MsgCall
	digest   bool        // level-4 framing: large arguments travel as digests
	info     *idl.Info   // from the server, by resolve
}

func echoShape(n int, lockstep bool) func(int64) callShape {
	return func(seed int64) callShape {
		rng := rand.New(rand.NewSource(seed))
		return callShape{routine: "echo", lockstep: lockstep, args: []idl.Value{int64(n), randVec(rng, n), nil}}
	}
}

func submitShape(seed int64) callShape {
	const n = submitN
	a, b := make([]float64, n*n), make([]float64, n*n)
	for j := range a {
		a[j], b[j] = float64((int(seed)+j)%16), float64((3*j)%7)
	}
	return callShape{routine: "dmmul", submit: true, args: []idl.Value{int64(n), a, b, nil}}
}

func wanShape(seed int64) callShape {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, wanN*wanN)
	wanMatrix(rng, a, wanN)
	return callShape{routine: "linsolve", digest: true, args: []idl.Value{int64(wanN), a, randVec(rng, wanN)}}
}

// resolve fetches the routine's compiled interface, as a first call
// does.
func (sh *callShape) resolve(c *ninf.Client) error {
	info, err := c.Interface(sh.routine)
	if err != nil {
		return fmt.Errorf("interface %s: %w", sh.routine, err)
	}
	sh.info = info
	return nil
}

func (sh *callShape) request() *protocol.CallRequest {
	return &protocol.CallRequest{Name: sh.routine, Args: sh.args}
}

// bulkThreshold is the chunking threshold this shape's path applies.
func (sh *callShape) bulkThreshold() int {
	if sh.lockstep {
		return 0
	}
	return protocol.DefaultBulkThreshold
}

// biggest returns the shape's largest float64 array argument.
func (sh *callShape) biggest() []float64 {
	var best []float64
	for _, a := range sh.args {
		if v, ok := a.([]float64); ok && len(v) > len(best) {
			best = v
		}
	}
	return best
}

// timeEach calls fn for about budget (at least 20 times) and returns
// the sorted per-call wall times in µs.
func timeEach(budget time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	for start := time.Now(); len(out) < 20 || time.Since(start) < budget; {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t))/1e3)
	}
	sort.Float64s(out)
	return out, nil
}

// timeMean calls fn in growing batches for about budget and returns the
// mean wall time per call in ns — for functions too short to time one
// by one.
func timeMean(budget time.Duration, fn func() error) (float64, error) {
	var total time.Duration
	calls := 0
	for batch := 1; total < budget; batch *= 2 {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		total += time.Since(t)
		calls += batch
	}
	return float64(total) / float64(calls), nil
}

// layerTimings fills in the standalone metrics of every layer the
// shape's path crosses.
func layerTimings(m metricSet, sh callShape, w *workload, dir string, budget time.Duration) error {
	req, repLen, err := codecTimings(m, sh, budget)
	if err != nil {
		return fmt.Errorf("codec timings: %w", err)
	}
	if w.linkBps == 0 {
		rtt, err := loopbackRTT(len(req.payload), repLen, budget)
		if err != nil {
			return fmt.Errorf("loopback rtt: %w", err)
		}
		m.set("net.loopback_rtt_us_p50", "us", quantile(rtt, 0.5), len(rtt))
	}
	if !sh.lockstep {
		if err := muxEcho(m, req, budget); err != nil {
			return fmt.Errorf("mux echo: %w", err)
		}
	}
	if v := sh.biggest(); len(v) > 0 {
		v = v[:min(len(v), 8192)]
		kb := float64(8*len(v)) / 1e3
		var enc xdr.Encoder
		put, err := timeMean(budget, func() error {
			enc.Reset(io.Discard)
			enc.PutFloat64s(v)
			return enc.Err()
		})
		if err != nil {
			return err
		}
		var wire bytes.Buffer
		enc.Reset(&wire)
		enc.PutFloat64s(v)
		dst := make([]float64, len(v))
		var rd bytes.Reader
		var dec xdr.Decoder
		read, err := timeMean(budget, func() error {
			rd.Reset(wire.Bytes())
			dec.Reset(&rd)
			dec.ReadFloat64sInto(dst)
			return dec.Err()
		})
		if err != nil {
			return err
		}
		m.set("xdr.put_f64s_ns_per_kb", "ns/KB", put/kb, 0)
		m.set("xdr.read_f64s_ns_per_kb", "ns/KB", read/kb, 0)
	}
	if sh.digest {
		v := sh.biggest()
		ns, err := timeMean(budget, func() error {
			protocol.DigestFloat64s(v)
			return nil
		})
		if err != nil {
			return err
		}
		m.set("protocol.digest_us_per_mib", "us/MiB", ns/1e3/(float64(8*len(v))/(1<<20)), 0)
	}
	if sh.submit {
		if err := journalAppend(m, sh, dir, budget); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
	}
	return nil
}

// reassemble streams bm as chunk frames through memory into a
// Reassembler, as the two ends of a connection would, and returns the
// rebuilt message. The caller releases its buffer.
func reassemble(bm *protocol.BulkMsg) (*protocol.BulkDone, error) {
	var wire bytes.Buffer
	ra := protocol.NewReassembler(0, 1)
	defer ra.Close()
	begin := bm.EncodeBegin()
	err := ra.Begin(1, begin.Payload(), false)
	begin.Release()
	if err != nil {
		return nil, err
	}
	cur := bm.Cursor()
	for {
		if _, err := cur.WriteChunk(&wire, 1, 0); err != nil {
			return nil, err
		}
		_, _, n, err := protocol.ReadMuxHeader(&wire, 0)
		if err != nil {
			return nil, err
		}
		bd, err := ra.ReadChunk(&wire, 1, n)
		if err != nil || bd != nil {
			return bd, err
		}
	}
}

// mapResolver answers digest markers from memory, standing in for the
// server's argument cache.
type mapResolver map[protocol.Digest][]byte

func (r mapResolver) ResolveDigest(d protocol.Digest) ([]byte, bool) { b, ok := r[d]; return b, ok }
func (r mapResolver) RetainSegment([]byte, bool, int)                {}

// wireMsg is one encoded message: its logical payload, and whether the
// workload's path sends it as chunked bulk frames.
type wireMsg struct {
	payload []byte
	chunked bool
}

// codecTimings times the four codec steps of one call in the variant
// the shape's path takes — monolithic buffer, chunked with zero-copy
// segments, or digest markers — and the framing around them. It
// returns the request as the session layer carries it and the reply's
// length.
func codecTimings(m metricSet, sh callShape, budget time.Duration) (req wireMsg, repLen int, err error) {
	info, creq, thr := sh.info, sh.request(), sh.bulkThreshold()
	const key = 42

	// The request, encoded once to learn its variant and to have the
	// bytes the server side decodes.
	var encReq func() error
	var head []byte
	var bulk *protocol.BulkInfo
	var frame *protocol.Buffer // the monolithic request frame, if there is one
	switch bm, err := protocol.EncodeCallRequestChunks(info, creq, thr); {
	case err != nil:
		return wireMsg{}, 0, err
	case sh.digest:
		bm.Release()
		res := mapResolver{}
		warm := func(protocol.Digest) bool { return true }
		encode := func() (*protocol.Buffer, error) {
			digs, err := protocol.CallRequestDigests(info, creq, thr)
			if err != nil {
				return nil, err
			}
			_, fb, err := protocol.EncodeCallRequestDigest(info, creq, false, 0, thr, digs, warm)
			return fb, err
		}
		encReq = func() error { fb, err := encode(); fb.Release(); return err }
		for _, a := range sh.args {
			if d, ok := protocol.DigestValue(a); ok {
				res[d], _ = protocol.ValueLEBytes(a)
			}
		}
		if frame, err = encode(); err != nil {
			return wireMsg{}, 0, err
		}
		head = frame.Payload()
		bulk = &protocol.BulkInfo{Base: head, HeadLen: len(head), LE: true, Resolver: res}
		req.payload = append(req.payload, head...)
	case bm != nil:
		encReq = func() error {
			bm, err := protocol.EncodeCallRequestChunks(info, creq, thr)
			bm.Release()
			return err
		}
		bd, err := reassemble(bm)
		if err != nil {
			return wireMsg{}, 0, err
		}
		defer bd.FB.Release()
		mib := float64(bm.Total()) / (1 << 20)
		ns, err := timeMean(budget, func() error {
			d, err := reassemble(bm)
			if err == nil {
				d.FB.Release()
			}
			return err
		})
		bm.Release()
		if err != nil {
			return wireMsg{}, 0, err
		}
		m.set("protocol.bulk_chunk_us_per_mib", "us/MiB", ns/1e3/mib, 0)
		head, bulk = bd.Bulk.Head(), &bd.Bulk
		req = wireMsg{payload: append(req.payload, bd.Bulk.Base...), chunked: true}
	default:
		encode := func() (*protocol.Buffer, error) {
			if sh.submit {
				return protocol.EncodeSubmitRequestBuf(info, creq, key)
			}
			return protocol.EncodeCallRequestBuf(info, creq)
		}
		encReq = func() error { fb, err := encode(); fb.Release(); return err }
		if frame, err = encode(); err != nil {
			return wireMsg{}, 0, err
		}
		head = frame.Payload()
		req.payload = append(req.payload, head...)
	}
	defer frame.Release()

	decArgs := func() ([]idl.Value, error) {
		p := head
		if sh.submit {
			var err error
			if _, p, err = protocol.DecodeSubmitKey(p); err != nil {
				return nil, err
			}
		}
		_, rest, err := protocol.DecodeCallName(p)
		if err != nil {
			return nil, err
		}
		var retain bool
		args, _, err := protocol.DecodeCallArgsDeadlineRetainBulk(info, rest, bulk, &retain)
		return args, err
	}
	sargs, err := decArgs()
	if err != nil {
		return wireMsg{}, 0, err
	}

	// The reply the server would build from those arguments.
	tm := protocol.Timings{Enqueue: 1, Dequeue: 2, Complete: 3}
	var encRep, decRep func() error
	if rbm, err := protocol.EncodeCallReplyChunks(info, tm, sargs, thr); err != nil {
		return wireMsg{}, 0, err
	} else if rbm != nil {
		encRep = func() error {
			bm, err := protocol.EncodeCallReplyChunks(info, tm, sargs, thr)
			bm.Release()
			return err
		}
		bd, err := reassemble(rbm)
		rbm.Release()
		if err != nil {
			return wireMsg{}, 0, err
		}
		defer bd.FB.Release()
		decRep = func() error {
			_, _, err := protocol.DecodeCallReplyBulk(info, sh.args, bd.Bulk.Head(), &bd.Bulk)
			return err
		}
		repLen = len(bd.Bulk.Base)
	} else {
		rfb, err := protocol.EncodeCallReplyBuf(info, tm, sargs)
		if err != nil {
			return wireMsg{}, 0, err
		}
		defer rfb.Release()
		encRep = func() error { fb, err := protocol.EncodeCallReplyBuf(info, tm, sargs); fb.Release(); return err }
		decRep = func() error { _, _, err := protocol.DecodeCallReply(info, sh.args, rfb.Payload()); return err }
		repLen = rfb.Len()
	}

	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"protocol.encode_req_us", encReq},
		{"protocol.decode_args_us", func() error { _, err := decArgs(); return err }},
		{"protocol.encode_reply_us", encRep},
		{"protocol.decode_reply_us", decRep},
	} {
		ns, err := timeMean(budget, step.fn)
		if err != nil {
			return wireMsg{}, 0, fmt.Errorf("%s: %w", step.name, err)
		}
		m.set(step.name, "us", ns/1e3, 0)
	}

	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := errors.Join(encReq(), func() error { _, err := decArgs(); return err }(), encRep(), decRep()); err != nil {
			return wireMsg{}, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	m.set("protocol.codec_allocs_per_call", "count", float64(after.Mallocs-before.Mallocs)/rounds, rounds)

	// Framing: the request frame written to and read back from memory.
	// A chunked request's only monolithic frame is its 16-byte begin.
	if frame == nil {
		frame = protocol.AcquireBuffer(16)
		if _, err := frame.Write(make([]byte, 16)); err != nil {
			return wireMsg{}, 0, err
		}
	}
	var wire bytes.Buffer
	ns, err := timeMean(budget, func() error {
		wire.Reset()
		if sh.lockstep {
			if err := protocol.WriteFrameBuf(&wire, protocol.MsgCall, frame); err != nil {
				return err
			}
			_, fb, err := protocol.ReadFrameBuf(&wire, 0)
			fb.Release()
			return err
		}
		if err := protocol.WriteMuxFrameBuf(&wire, protocol.MsgCall, 1, frame); err != nil {
			return err
		}
		_, _, fb, err := protocol.ReadMuxFrameBuf(&wire, 0)
		fb.Release()
		return err
	})
	if err != nil {
		return wireMsg{}, 0, err
	}
	m.set("protocol.frame_rw_us", "us", ns/1e3, 0)
	return req, repLen, nil
}

// loopbackRTT is the floor under every loopback call: a bare TCP
// exchange of the workload's request and reply sizes, no protocol.
func loopbackRTT(reqLen, repLen int, budget time.Duration) ([]float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, rep := make([]byte, reqLen), make([]byte, repLen)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			if _, err := c.Write(rep); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	req, rep := make([]byte, reqLen), make([]byte, repLen)
	out, err := timeEach(budget, func() error {
		if _, err := c.Write(req); err != nil {
			return err
		}
		_, err := io.ReadFull(c, rep)
		return err
	})
	c.Close()
	<-done
	return out, err
}

// muxReader reads whole messages off a mux connection, reassembling
// chunked ones; frames counts every frame header read.
type muxReader struct {
	br     *bufio.Reader
	ra     *protocol.Reassembler
	frames int64
}

func newMuxReader(c net.Conn) *muxReader {
	return &muxReader{br: bufio.NewReaderSize(c, 64<<10), ra: protocol.NewReassembler(0, 8)}
}

// next returns the next complete message; chunked reports whether it
// arrived as bulk frames. The caller releases the buffer.
func (r *muxReader) next() (t protocol.MsgType, seq uint32, fb *protocol.Buffer, chunked bool, err error) {
	for {
		t, seq, n, err := protocol.ReadMuxHeader(r.br, 0)
		if err != nil {
			return 0, 0, nil, false, err
		}
		r.frames++
		switch t {
		case protocol.MsgBulkBegin:
			fb, err := protocol.ReadMuxPayload(r.br, n)
			if err != nil {
				return 0, 0, nil, false, err
			}
			err = r.ra.Begin(seq, fb.Payload(), false)
			fb.Release()
			if err != nil {
				return 0, 0, nil, false, err
			}
		case protocol.MsgBulkChunk:
			bd, err := r.ra.ReadChunk(r.br, seq, n)
			if err != nil {
				return 0, 0, nil, false, err
			}
			if bd != nil {
				return bd.Type, seq, bd.FB, true, nil
			}
		default:
			fb, err := protocol.ReadMuxPayload(r.br, n)
			return t, seq, fb, false, err
		}
	}
}

// writeChunked streams bm as a begin frame and its chunks; it returns
// how many writes that took.
func writeChunked(c net.Conn, seq uint32, bm *protocol.BulkMsg) (int64, error) {
	begin := bm.EncodeBegin()
	err := protocol.WriteMuxFrameBuf(c, protocol.MsgBulkBegin, seq, begin)
	begin.Release()
	writes := int64(1)
	cur := bm.Cursor()
	for done := false; err == nil && !done; writes++ {
		done, err = cur.WriteChunk(c, seq, 0)
	}
	return writes, err
}

// rawExchange runs the workload's call against the real server with no
// client library: a pre-encoded request written with protocol.Write*,
// the reply read and its type checked. What the client library adds on
// top of this is client.self_us_p50.
func rawExchange(addr string, sh callShape, budget time.Duration) ([]float64, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	info, creq := sh.info, sh.request()
	if sh.lockstep {
		req, err := protocol.EncodeCallRequestBuf(info, creq)
		if err != nil {
			return nil, err
		}
		defer req.Release()
		return timeEach(budget, func() error {
			if err := protocol.WriteFrameBuf(c, protocol.MsgCall, req); err != nil {
				return err
			}
			t, fb, err := protocol.ReadFrameBuf(c, 0)
			fb.Release()
			return wantType(t, protocol.MsgCallOK, err)
		})
	}
	if _, err := mux.NegotiateHello(c, 0); err != nil {
		return nil, err
	}
	rd := newMuxReader(c)
	defer rd.ra.Close()
	seq := uint32(0)
	// exchange sends one stamped frame and reads one whole reply.
	exchange := func(t protocol.MsgType, req *protocol.Buffer, want protocol.MsgType) (*protocol.Buffer, error) {
		seq++
		if err := protocol.WriteMuxFrameBuf(c, t, seq, req); err != nil {
			return nil, err
		}
		rt, _, fb, _, err := rd.next()
		if err := wantType(rt, want, err); err != nil {
			fb.Release()
			return nil, err
		}
		return fb, nil
	}
	if sh.submit {
		req, err := protocol.EncodeSubmitRequestBuf(info, creq, 1)
		if err != nil {
			return nil, err
		}
		defer req.Release()
		key := uint64(time.Now().UnixNano()) // fresh keys: a repeated key is answered from the dedupe table
		return timeEach(budget, func() error {
			key++
			binary.BigEndian.PutUint64(req.Payload(), key)
			fb, err := exchange(protocol.MsgSubmit, req, protocol.MsgSubmitOK)
			if err != nil {
				return err
			}
			sr, err := protocol.DecodeSubmitReply(fb.Payload())
			fb.Release()
			if err != nil {
				return err
			}
			fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
			freq := fr.EncodeBuf()
			fb, err = exchange(protocol.MsgFetch, freq, protocol.MsgFetchOK)
			freq.Release()
			fb.Release()
			return err
		})
	}
	bm, err := protocol.EncodeCallRequestChunks(info, creq, sh.bulkThreshold())
	if err != nil {
		return nil, err
	}
	if bm != nil {
		defer bm.Release()
		return timeEach(budget, func() error {
			seq++
			if _, err := writeChunked(c, seq, bm); err != nil {
				return err
			}
			t, _, fb, _, err := rd.next()
			fb.Release()
			return wantType(t, protocol.MsgCallOK, err)
		})
	}
	req, err := protocol.EncodeCallRequestBuf(info, creq)
	if err != nil {
		return nil, err
	}
	defer req.Release()
	return timeEach(budget, func() error {
		fb, err := exchange(protocol.MsgCall, req, protocol.MsgCallOK)
		fb.Release()
		return err
	})
}

func wantType(got, want protocol.MsgType, err error) error {
	if err == nil && got != want {
		err = fmt.Errorf("reply %v, want %v", got, want)
	}
	return err
}

// muxEcho times mux.Session.Roundtrip (RoundtripBulk for a chunked
// message) against a responder of the harness's own that echoes every
// message back, on loopback TCP: the session layer alone. One caller
// gives the round-trip median; two callers, as in the workloads, give
// the writer's coalescing and the session's depth.
func muxEcho(m metricSet, msg wireMsg, budget time.Duration) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	var respWrites, respFrames atomic.Int64
	done := make(chan error, 1)
	go func() { done <- muxResponder(l, &respWrites, &respFrames) }()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	hello, err := mux.NegotiateHello(c, 0)
	if err != nil {
		c.Close()
		return err
	}
	sess := mux.New(c, 0, int(hello.Version))

	payload := msg.payload
	ctx := context.Background()
	roundtrip := func() error {
		var fb *protocol.Buffer
		var err error
		if msg.chunked {
			_, fb, _, err = sess.RoundtripBulk(ctx, protocol.RawBulkMsg(protocol.MsgCall, payload))
		} else {
			_, fb, _, err = sess.Roundtrip(ctx, protocol.MsgCall, protocol.BufferFor(payload))
		}
		if err == nil && fb.Len() != len(payload) {
			err = fmt.Errorf("echoed %d bytes of %d", fb.Len(), len(payload))
		}
		fb.Release()
		return err
	}
	one, err := timeEach(budget, roundtrip)
	if err != nil {
		return err
	}
	m.set("mux.echo_roundtrip_us_p50", "us", quantile(one, 0.5), len(one))

	_, w0, haveIO := procIO()
	rw0, rf0 := respWrites.Load(), respFrames.Load()
	var depth []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = timeEach(budget, roundtrip)
		}(k)
	}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
				depth = append(depth, float64(sess.InFlight()))
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	_, w1, _ := procIO()
	m.set("mux.inflight_mean", "count", mean(depth), len(depth))
	// The process's write syscalls during the pass, less the
	// responder's own, are the session writer's.
	if writes := (w1 - w0) - (respWrites.Load() - rw0); haveIO && writes > 0 {
		m.set("mux.frames_per_write", "count", float64(respFrames.Load()-rf0)/float64(writes), int(writes))
	}
	sess.Close()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return <-done
}

// muxResponder accepts one connection, answers the hello, and echoes
// every message with its own sequence number: monolithic frames as one
// write, chunked messages chunked. It counts its writes and the frames
// it read.
func muxResponder(l net.Listener, writes, frames *atomic.Int64) error {
	c, err := l.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	if t, _, err := protocol.ReadFrame(c, 0); err != nil || t != protocol.MsgHello {
		return fmt.Errorf("responder: hello: %v %v", t, err)
	}
	rep := protocol.HelloReply{Version: protocol.MuxVersionBulk}
	if err := protocol.WriteFrame(c, protocol.MsgHelloOK, rep.Encode()); err != nil {
		return err
	}
	rd := newMuxReader(c)
	defer rd.ra.Close()
	for {
		t, seq, fb, chunked, err := rd.next()
		frames.Store(rd.frames)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if chunked {
			var n int64
			n, err = writeChunked(c, seq, protocol.RawBulkMsg(t, fb.Payload()))
			writes.Add(n)
		} else {
			err = protocol.WriteMuxFrameBuf(c, t, seq, fb)
			writes.Add(1)
		}
		fb.Release()
		if err != nil {
			return err
		}
	}
}

// journalAppend times Journal.Append on a scratch log with the record a
// submit of this shape journals, under the workload's fsync policy.
func journalAppend(m metricSet, sh callShape, dir string, budget time.Duration) error {
	req, err := protocol.EncodeCallRequest(sh.info, sh.request())
	if err != nil {
		return err
	}
	jdir, err := os.MkdirTemp(dir, "append-")
	if err != nil {
		return err
	}
	j, _, err := journal.Open(jdir, journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		return err
	}
	rec := protocol.JournalRecord{Kind: protocol.JournalSubmit, Key: 1, Client: "127.0.0.1:50000", Payload: req}
	us, err := timeEach(budget, func() error {
		rec.JobID++
		return j.Append(&rec)
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.set("journal.append_us_p50", "us", quantile(us, 0.5), len(us))
	m.set("journal.append_us_p99", "us", quantile(us, 0.99), len(us))
	return nil
}

// reopenJournal opens and closes the log a finished run left behind:
// the read, compact and rewrite a restart would pay.
func reopenJournal(dir string) error {
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		return err
	}
	return j.Close()
}

// pacingError pushes half a second's worth of bytes (at most 8 MiB)
// through an emunet.Pipe at rate and returns how far the measured rate
// was from the asked one. Above 0.05 the machine is too loaded for the
// link workloads' timings to mean anything.
func pacingError(rate float64) float64 {
	n := min(8<<20, int(rate/2))
	a, b := emunet.Pipe(emunet.Options{Up: []*emunet.Link{emunet.NewLink("probe", rate)}})
	go func() {
		io.Copy(io.Discard, b) // ends when a closes
		b.Close()
	}()
	buf := make([]byte, 64<<10)
	t := time.Now()
	for sent := 0; sent < n; sent += len(buf) {
		if _, err := a.Write(buf); err != nil {
			break
		}
	}
	got := float64(n) / time.Since(t).Seconds()
	a.Close()
	if got > rate {
		return got/rate - 1
	}
	return 1 - got/rate
}
