package protocol

import (
	"fmt"
	"sync"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// encodePayload runs fn against a pooled buffer's encoder and returns
// a compact copy of the resulting payload. It backs the []byte-
// returning Encode helpers; hot paths use the *Buf variants and skip
// the copy.
func encodePayload(sizeHint int, fn func(e *xdr.Encoder)) []byte {
	fb := AcquireBuffer(sizeHint)
	fn(fb.Encoder())
	return CopyOut(fb)
}

// payloadDecoder is a pooled XDR decoder reading a payload in place.
type payloadDecoder struct {
	d xdr.Decoder
}

var decoderPool = sync.Pool{New: func() any { return new(payloadDecoder) }}

// acquireDecoder returns a pooled decoder positioned at the start of p.
func acquireDecoder(p []byte) *payloadDecoder {
	pd := decoderPool.Get().(*payloadDecoder)
	pd.d.ResetBytes(p)
	return pd
}

func (pd *payloadDecoder) release() {
	pd.d.ResetBytes(nil)
	decoderPool.Put(pd)
}

// decodePayload runs fn against a pooled decoder over p — the mirror of
// encodePayload — and refuses p unless fn read it exactly to its end.
// Every message has one fixed layout, so a payload that is short and
// one with bytes left over are both malformed, never an older or newer
// sender's variant.
func decodePayload[T any](p []byte, fn func(d *xdr.Decoder) (T, error)) (T, error) {
	pd := acquireDecoder(p)
	defer pd.release()
	m, err := fn(&pd.d)
	if err == nil {
		err = atEnd(&pd.d, len(p))
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return m, nil
}

// atEnd reports whether d has read all n bytes of its payload cleanly.
func atEnd(d *xdr.Decoder, n int) error {
	if err := d.Err(); err != nil {
		return err
	}
	if left := n - int(d.Len()); left != 0 {
		return fmt.Errorf("protocol: %d bytes left after the last field", left)
	}
	return nil
}

// InterfaceRequest is the payload of MsgInterface.
type InterfaceRequest struct {
	Name string
}

// Encode serializes the request.
func (m *InterfaceRequest) Encode() []byte {
	return encodePayload(xdr.SizeString(len(m.Name)), func(e *xdr.Encoder) {
		e.PutString(m.Name)
	})
}

// DecodeInterfaceRequest parses a MsgInterface payload.
func DecodeInterfaceRequest(p []byte) (InterfaceRequest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (InterfaceRequest, error) {
		return InterfaceRequest{Name: d.String()}, nil
	})
}

// EncodeInterfaceReply serializes the compiled IDL for MsgInterfaceOK.
func EncodeInterfaceReply(info *idl.Info) ([]byte, error) {
	fb := AcquireBuffer(0)
	defer fb.Release()
	if err := idl.Encode(fb, info); err != nil {
		return nil, err
	}
	return append([]byte(nil), fb.Payload()...), nil
}

// DecodeInterfaceReply parses a MsgInterfaceOK payload.
func DecodeInterfaceReply(p []byte) (*idl.Info, error) {
	return decodePayload(p, idl.Decode)
}

// ListReply is the payload of MsgListReply: the registered routine
// names in registration order.
type ListReply struct {
	Names []string
}

// Encode serializes the reply.
func (m *ListReply) Encode() []byte {
	size := 4
	for _, n := range m.Names {
		size += xdr.SizeString(len(n))
	}
	return encodePayload(size, func(e *xdr.Encoder) {
		e.PutUint32(uint32(len(m.Names)))
		for _, n := range m.Names {
			e.PutString(n)
		}
	})
}

// DecodeListReply parses a MsgListReply payload.
func DecodeListReply(p []byte) (ListReply, error) {
	return decodePayload(p, func(d *xdr.Decoder) (ListReply, error) {
		n := int(d.Uint32())
		if err := d.Err(); err != nil {
			return ListReply{}, err
		}
		if n > 1<<20 || n > (len(p)-4)/4 { // a name takes at least 4 bytes
			return ListReply{}, fmt.Errorf("protocol: implausible list length %d", n)
		}
		m := ListReply{Names: make([]string, 0, n)}
		for i := 0; i < n; i++ {
			m.Names = append(m.Names, d.String())
		}
		return m, nil
	})
}

// CallRequest is the payload of MsgCall and MsgSubmit: a routine name,
// every in-shipping argument, positionally, encoded per the IDL, then
// the deadline (int64) and the retain flag (u32), always present.
// Scalar values that only matter server-side (mode_out) are never
// shipped.
type CallRequest struct {
	Name string
	// Args holds one entry per IDL parameter. Out-only parameters
	// may be nil; in-shipping entries must be concrete values.
	Args []idl.Value
	// Deadline is the caller's absolute deadline in Unix nanoseconds,
	// or zero for no deadline.
	Deadline int64
	// Retain asks a cache-enabled server to keep this call's large
	// out/inout results resident in its argument cache after the reply,
	// so a later call on the same server can reference them by digest.
	Retain bool
}

// argSize returns the encoded size in bytes of one argument, used to
// pre-size frame buffers so steady-state calls stay in one size class.
func argSize(p *idl.Param, count int, v idl.Value) int {
	if p.IsScalar() {
		switch p.Type {
		case idl.Int, idl.Double:
			return 8
		case idl.Float:
			return 4
		case idl.String:
			if s, ok := v.(string); ok {
				return xdr.SizeString(len(s))
			}
			return 4
		}
		return 8
	}
	switch p.Type {
	case idl.Int, idl.Double:
		return 4 + 8*count
	case idl.Float:
		return 4 + 4*count
	}
	return 4
}

// A Shape says where an encoded message may put its array arguments —
// the one thing a connection changes about encoding. The zero Shape puts
// every array inline behind its count word: lockstep connections,
// journal records. NewShape builds the shape a mux connection allows;
// each side builds one per message from what its session negotiated.
// locateArray is the decode-side mirror.
type Shape struct {
	threshold int      // > 0: arrays of at least this many bytes leave the head
	digest    bool     // digs and warm list those arrays, in parameter order
	digs      []Digest // what a marker carries
	warm      []bool   // true: the peer holds it, the 20-byte marker suffices
}

// NewShape is the shape a connection allows. An array whose elements
// reach threshold bytes rides as a zero-copy segment behind the head,
// which keeps a marker word and the segment's offset; a threshold ≤ 0
// keeps every array inline and ignores the rest, the zero Shape a
// lockstep connection uses. With cache set because the server granted
// its argument cache (HelloFlagArgCache), an eligible array the cache
// already holds becomes a digest marker carrying no bytes: digs must
// then come from CallRequestDigests for the same request and threshold,
// and warm[i] says whether the peer holds digs[i]. Without both, digs
// and warm are ignored.
func NewShape(cache bool, threshold int, digs []Digest, warm []bool) Shape {
	if !cache || threshold <= 0 || len(digs) == 0 {
		return Shape{threshold: threshold}
	}
	return Shape{threshold: threshold, digest: true, digs: digs, warm: warm}
}

// envelope is what surrounds the argument vector in a message: a reply
// leads with the server's timings; a request leads with the routine
// name, a submit's idempotency key ahead of that, and ends with the
// deadline and the retain flag.
type envelope struct {
	t        MsgType // MsgCall, MsgSubmit or MsgCallOK
	tm       Timings
	key      uint64
	name     string
	deadline int64
	retain   bool
}

func (env *envelope) size() int {
	if env.t == MsgCallOK {
		return 24 // three int64 timings
	}
	size := xdr.SizeString(len(env.name)) + 12 // + deadline and retain
	if env.t == MsgSubmit {
		size += 8
	}
	return size
}

func (env *envelope) putLead(e *xdr.Encoder) {
	switch env.t {
	case MsgCallOK:
		env.tm.encode(e)
		return
	case MsgSubmit:
		e.PutUint64(env.key)
	}
	e.PutString(env.name)
}

func (env *envelope) putTail(e *xdr.Encoder) {
	if env.t != MsgCallOK {
		e.PutInt64(env.deadline)
		e.PutBool(env.retain)
	}
}

// Where one shipped argument goes.
const (
	placeInline  uint8 = iota // XDR in the head
	placeSegment              // marker word + offset in the head, elements in a segment span
	placeDigest               // marker word + digest in the head, elements in the peer's cache
)

// EncodeRequest serializes a MsgCall or MsgSubmit payload — for a
// submit the client's idempotency key, by which the server dedupes a
// transport-level retry, then the routine name, every in-shipping
// argument per the IDL, the deadline and the retain flag — placing
// arrays as sh allows.
// Exactly one of the two returns is non-nil: a *BulkMsg when at least
// one segment must stream, else a pooled *Buffer holding the whole
// payload (digest markers included; a zero-segment BulkMsg would never
// complete reassembly). The caller owns and Releases either; a BulkMsg's
// segment spans alias req.Args, which must stay unmutated until the send
// completes.
func EncodeRequest(info *idl.Info, t MsgType, req *CallRequest, key uint64, sh Shape) (*BulkMsg, *Buffer, error) {
	env := envelope{t: t, key: key, name: req.Name, deadline: req.Deadline, retain: req.Retain}
	return encodeMessage(info, &env, req.Args, sh)
}

// EncodeReply serializes a MsgCallOK payload — server-side timings
// followed by the out-shipping arguments — under the same contract as
// EncodeRequest: segment spans alias args until the reply is written.
func EncodeReply(info *idl.Info, tm Timings, args []idl.Value, sh Shape) (*BulkMsg, *Buffer, error) {
	env := envelope{t: MsgCallOK, tm: tm}
	return encodeMessage(info, &env, args, sh)
}

// encodeMessage is the one traversal that writes an argument vector.
func encodeMessage(info *idl.Info, env *envelope, args []idl.Value, sh Shape) (*BulkMsg, *Buffer, error) {
	if len(args) != len(info.Params) {
		return nil, nil, fmt.Errorf("protocol: %s takes %d arguments, got %d", info.Name, len(info.Params), len(args))
	}
	var fewCounts [8]int
	counts, err := info.DimSizes(args, fewCounts[:0])
	if err != nil {
		return nil, nil, err
	}
	reply, what := env.t == MsgCallOK, "argument"
	if reply {
		what = "result"
	}
	// First pass: place every shipped argument, so the buffer is acquired
	// in its final size class and span bookkeeping exists only when a
	// segment does.
	var few [8]uint8 // keeps the usual call's bookkeeping off the heap
	where := few[:]
	if len(info.Params) > len(few) {
		where = make([]uint8, len(info.Params))
	}
	size, nseg, di := env.size(), 0, 0
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(reply) {
			continue
		}
		span := bulkSpanFor(p, args[i])
		if sh.threshold <= 0 || len(span) < sh.threshold {
			size += argSize(p, counts[i], args[i])
			continue
		}
		if n := len(span) / bulkElemSize(p.Type); n != counts[i] {
			return nil, nil, fmt.Errorf("protocol: %s %s %q: array length %d, IDL dimensions give %d", info.Name, what, p.Name, n, counts[i])
		}
		where[i] = placeSegment
		if sh.digest {
			if di >= len(sh.digs) || di >= len(sh.warm) {
				return nil, nil, fmt.Errorf("protocol: %s: digest list too short", info.Name)
			}
			if sh.warm[di] {
				where[i] = placeDigest
			}
			di++
		}
		if where[i] == placeDigest {
			size += 20 // marker word + 128-bit digest
		} else {
			size += 8 // marker word + offset
			nseg++
		}
	}
	if di != len(sh.digs) {
		return nil, nil, fmt.Errorf("protocol: %s: digest list has %d entries, call has %d bulk arguments", info.Name, len(sh.digs), di)
	}
	fb := AcquireBuffer(size)
	e := fb.Encoder()
	env.putLead(e)
	var spans [][]byte
	var patches []int
	if nseg > 0 {
		spans = make([][]byte, 1, 1+nseg) // spans[0] becomes the head
		patches = make([]int, 0, nseg)
	}
	di = 0 // walks sh.digs again: one entry per argument that left the head
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(reply) {
			continue
		}
		switch where[i] {
		case placeInline:
			if err := encodeArg(e, p, counts[i], args[i]); err != nil {
				fb.Release()
				return nil, nil, fmt.Errorf("protocol: %s %s %q: %w", info.Name, what, p.Name, err)
			}
		case placeSegment:
			putBulkMarker(e, fb, counts[i], bulkSpanFor(p, args[i]), &spans, &patches)
			di++
		case placeDigest:
			e.PutUint32(uint32(counts[i]) | bulkArgFlag | bulkDigestFlag)
			e.PutUint64(sh.digs[di].Hi)
			e.PutUint64(sh.digs[di].Lo)
			di++
		}
	}
	env.putTail(e)
	if err := e.Err(); err != nil {
		fb.Release()
		return nil, nil, err
	}
	if nseg == 0 {
		return nil, fb, nil
	}
	return finishBulkMsg(env.t, fb, spans, patches), nil, nil
}

// The names below are what benchmark/layers.go compiles against. Each is
// a front over EncodeRequest or EncodeReply and goes when that file
// moves to the single entry.

// EncodeCallRequestBuf is EncodeRequest for a MsgCall with every
// argument inline.
func EncodeCallRequestBuf(info *idl.Info, req *CallRequest) (*Buffer, error) {
	_, fb, err := EncodeRequest(info, MsgCall, req, 0, Shape{})
	return fb, err
}

// EncodeSubmitRequestBuf is EncodeRequest for a MsgSubmit with every
// argument inline.
func EncodeSubmitRequestBuf(info *idl.Info, req *CallRequest, key uint64) (*Buffer, error) {
	_, fb, err := EncodeRequest(info, MsgSubmit, req, key, Shape{})
	return fb, err
}

// EncodeCallRequest is EncodeCallRequestBuf into a caller-owned slice.
func EncodeCallRequest(info *idl.Info, req *CallRequest) ([]byte, error) {
	_, fb, err := EncodeRequest(info, MsgCall, req, 0, Shape{})
	return CopyOut(fb), err
}

// DecodeCallName peeks only the routine name from a MsgCall payload so
// the server can look up the interface before decoding arguments.
func DecodeCallName(p []byte) (name string, rest []byte, err error) {
	pd := acquireDecoder(p)
	name = pd.d.String()
	n := int(pd.d.Len())
	derr := pd.d.Err()
	pd.release()
	if derr != nil {
		return "", nil, derr
	}
	return name, p[n:], nil
}

// DecodeCallArgsDeadlineRetainBulk is DecodeCallArgsPooled into arrays
// the caller keeps (pinned by benchmark/layers.go).
func DecodeCallArgsDeadlineRetainBulk(info *idl.Info, rest []byte, bulk *BulkInfo, retainOut *bool) ([]idl.Value, int64, error) {
	return DecodeCallArgsPooled(info, rest, bulk, retainOut, nil, 0)
}

// DecodeCallArgsPooled decodes the in-shipping arguments of a call
// against its interface, allocating zeroed values for out-only
// parameters so the executable can fill them. Dimension expressions are
// evaluated left to right as scalars arrive, exactly as Ninf_call's
// interpreter does. rest is the payload after DecodeCallName; for a
// reassembled bulk payload it must be sliced to bulk.Head(), and bulk
// supplies the full payload that marker offsets resolve against — with a
// nil bulk the payload is monolithic and markers are rejected. It also
// returns the caller's absolute Unix-nanosecond deadline (zero for
// none) and stores the retain flag through a non-nil retainOut. rest
// must end exactly after the retain flag.
//
// With a non-nil arrays the receiver recycles its argument arrays: large
// in-arrays and zeroed out-arrays come from the array pool and are
// recorded in arrays, which the caller owns — also after an error, when
// it holds whatever was handed out before the payload went wrong — and
// Releases once nothing reads the returned values any more.
//
// In-arrays are bounded by the payload they are read from; out-only
// arrays are sized by scalars alone, so maxOut bounds their total bytes
// (0 means DefaultMaxPayload) and a call over it is rejected before any
// is allocated: one small frame must not make the receiver allocate, or
// answer with, more than a frame may carry.
func DecodeCallArgsPooled(info *idl.Info, rest []byte, bulk *BulkInfo, retainOut *bool, arrays *Arrays, maxOut int) ([]idl.Value, int64, error) {
	if maxOut <= 0 {
		maxOut = DefaultMaxPayload
	}
	pd := acquireDecoder(rest)
	defer pd.release()
	d := &pd.d
	// Dimensions are evaluated against args itself: Check lets them
	// name only earlier int in-scalars, which are decoded by then.
	args := make([]idl.Value, len(info.Params))
	// First pass: decode in-shipping values in order.
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			continue
		}
		count, err := p.Count(args)
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: %s dimension of %q: %w", info.Name, p.Name, err)
		}
		v, err := decodeArg(d, p, count, bulk, arrays)
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: %s argument %q: %w", info.Name, p.Name, err)
		}
		args[i] = v
	}
	// Second pass: allocate out-only parameters, holding their total
	// bytes to maxOut before each one is allocated.
	outBytes := 0
	for i := range info.Params {
		p := &info.Params[i]
		if p.Mode != idl.Out {
			continue
		}
		count, err := p.Count(args)
		if err != nil {
			return nil, 0, fmt.Errorf("protocol: %s dimension of %q: %w", info.Name, p.Name, err)
		}
		if !p.IsScalar() {
			if count > (maxOut-outBytes)/bulkElemSize(p.Type) {
				return nil, 0, fmt.Errorf("protocol: %s out-only arrays exceed %d bytes at %q (%d elements)", info.Name, maxOut, p.Name, count)
			}
			outBytes += count * bulkElemSize(p.Type)
		}
		args[i] = zeroValue(p, count, arrays)
	}
	deadline, retain := d.Int64(), d.Bool()
	if err := atEnd(d, len(rest)); err != nil {
		return nil, 0, err
	}
	if retainOut != nil {
		*retainOut = retain
	}
	return args, deadline, nil
}

// EncodeCallReplyBuf is EncodeReply with every result inline (pinned by
// benchmark/layers.go, like the request fronts above).
func EncodeCallReplyBuf(info *idl.Info, t Timings, args []idl.Value) (*Buffer, error) {
	_, fb, err := EncodeReply(info, t, args, Shape{})
	return fb, err
}

// DecodeCallReply decodes a MsgCallOK payload. The returned slice has
// one entry per parameter: out-shipping entries hold decoded values,
// others are nil. callArgs supplies the scalar inputs needed to size
// the out arrays.
func DecodeCallReply(info *idl.Info, callArgs []idl.Value, p []byte) (Timings, []idl.Value, error) {
	return decodeCallReply(info, callArgs, nil, p, nil)
}

// Timings carries the server-side timestamps the paper instruments
// (§4.1): when the call was accepted (enqueue), when the executable
// was invoked (dequeue), and when it completed. Times are nanoseconds
// on the server clock.
type Timings struct {
	Enqueue  int64
	Dequeue  int64
	Complete int64
}

func (t *Timings) encode(e *xdr.Encoder) {
	e.PutInt64(t.Enqueue)
	e.PutInt64(t.Dequeue)
	e.PutInt64(t.Complete)
}

func (t *Timings) decode(d *xdr.Decoder) {
	t.Enqueue = d.Int64()
	t.Dequeue = d.Int64()
	t.Complete = d.Int64()
}

// DecodeSubmitKey splits a MsgSubmit payload into the client's
// idempotency key and the embedded call request (the MsgCall-shaped
// remainder). A zero key means the submitter opted out of dedupe.
func DecodeSubmitKey(p []byte) (uint64, []byte, error) {
	pd := acquireDecoder(p)
	key := pd.d.Uint64()
	err := pd.d.Err()
	pd.release()
	if err != nil {
		return 0, nil, fmt.Errorf("protocol: submit payload lacks idempotency key: %w", err)
	}
	return key, p[8:], nil
}

// SubmitReply is the payload of MsgSubmitOK: a handle for the second
// phase.
type SubmitReply struct {
	JobID uint64
}

// Encode serializes the reply.
func (m *SubmitReply) Encode() []byte {
	return encodePayload(8, func(e *xdr.Encoder) { e.PutUint64(m.JobID) })
}

// DecodeSubmitReply parses a MsgSubmitOK payload.
func DecodeSubmitReply(p []byte) (SubmitReply, error) {
	return decodePayload(p, func(d *xdr.Decoder) (SubmitReply, error) {
		return SubmitReply{JobID: d.Uint64()}, nil
	})
}

// FetchRequest is the payload of MsgFetch.
type FetchRequest struct {
	JobID uint64
	// Wait asks the server to block until the job finishes rather
	// than reply CodeNotReady immediately.
	Wait bool
}

// Encode serializes the request.
func (m *FetchRequest) Encode() []byte {
	return encodePayload(12, func(e *xdr.Encoder) {
		e.PutUint64(m.JobID)
		e.PutBool(m.Wait)
	})
}

// EncodeBuf serializes the request into a pooled frame buffer.
func (m *FetchRequest) EncodeBuf() *Buffer {
	fb := AcquireBuffer(12)
	e := fb.Encoder()
	e.PutUint64(m.JobID)
	e.PutBool(m.Wait)
	return fb
}

// DecodeFetchRequest parses a MsgFetch payload.
func DecodeFetchRequest(p []byte) (FetchRequest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (FetchRequest, error) {
		return FetchRequest{JobID: d.Uint64(), Wait: d.Bool()}, nil
	})
}

// Stats is the payload of MsgStatsOK: the server self-report the
// metaserver polls for scheduling (§2.4).
type Stats struct {
	Hostname    string
	PEs         int64
	Running     int64
	Queued      int64
	TotalCalls  int64
	LoadAverage float64 // 1-minute style load average
	CPUUtil     float64 // fraction 0..1 since last probe window
	// Draining reports that the server is in graceful shutdown:
	// finishing queued work but rejecting new calls.
	Draining bool
	// Argument-cache counters, all zero on cache-less servers. The
	// metaserver gossips them with the rest of the snapshot, so every
	// replica sees which servers run warm caches.
	CacheHits        int64
	CacheMisses      int64
	CacheEvictions   int64
	CachePinnedBytes int64
	CacheUsedBytes   int64
	CacheBudget      int64
	// Epoch is the server's incarnation epoch (crash-recovery journal
	// servers mint a new one per start; see internal/server/journal),
	// zero on journal-less servers. A changed epoch tells pollers the
	// server restarted and its volatile state (cache, breakers'
	// evidence, un-journaled jobs) is gone.
	Epoch uint64
}

// Encode serializes the stats.
func (m *Stats) Encode() []byte {
	return encodePayload(xdr.SizeString(len(m.Hostname))+116, func(e *xdr.Encoder) {
		e.PutString(m.Hostname)
		e.PutInt64(m.PEs)
		e.PutInt64(m.Running)
		e.PutInt64(m.Queued)
		e.PutInt64(m.TotalCalls)
		e.PutFloat64(m.LoadAverage)
		e.PutFloat64(m.CPUUtil)
		e.PutBool(m.Draining)
		e.PutInt64(m.CacheHits)
		e.PutInt64(m.CacheMisses)
		e.PutInt64(m.CacheEvictions)
		e.PutInt64(m.CachePinnedBytes)
		e.PutInt64(m.CacheUsedBytes)
		e.PutInt64(m.CacheBudget)
		e.PutUint64(m.Epoch)
	})
}

// DecodeStats parses a MsgStatsOK payload.
func DecodeStats(p []byte) (Stats, error) {
	return decodePayload(p, func(d *xdr.Decoder) (Stats, error) {
		return Stats{
			Hostname:         d.String(),
			PEs:              d.Int64(),
			Running:          d.Int64(),
			Queued:           d.Int64(),
			TotalCalls:       d.Int64(),
			LoadAverage:      d.Float64(),
			CPUUtil:          d.Float64(),
			Draining:         d.Bool(),
			CacheHits:        d.Int64(),
			CacheMisses:      d.Int64(),
			CacheEvictions:   d.Int64(),
			CachePinnedBytes: d.Int64(),
			CacheUsedBytes:   d.Int64(),
			CacheBudget:      d.Int64(),
			Epoch:            d.Uint64(),
		}, nil
	})
}

// zeroValue allocates the zero value for an out-only parameter, an
// array from arrays' pool when one is given.
func zeroValue(p *idl.Param, count int, arrays *Arrays) idl.Value {
	if p.IsScalar() {
		switch p.Type {
		case idl.Int:
			return int64(0)
		case idl.Double:
			return float64(0)
		case idl.Float:
			return float32(0)
		case idl.String:
			return ""
		}
	}
	return arrays.makeArray(p.Type, count, true)
}

// encodeArg writes one argument value per its IDL parameter.
func encodeArg(e *xdr.Encoder, p *idl.Param, count int, v idl.Value) error {
	if p.IsScalar() {
		switch p.Type {
		case idl.Int:
			switch x := v.(type) {
			case int64:
				e.PutInt64(x)
			case int:
				e.PutInt64(int64(x))
			default:
				return fmt.Errorf("want int, got %T", v)
			}
		case idl.Double:
			x, ok := v.(float64)
			if !ok {
				return fmt.Errorf("want float64, got %T", v)
			}
			e.PutFloat64(x)
		case idl.Float:
			switch x := v.(type) {
			case float32:
				e.PutFloat32(x)
			case float64:
				e.PutFloat32(float32(x))
			default:
				return fmt.Errorf("want float32, got %T", v)
			}
		case idl.String:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("want string, got %T", v)
			}
			e.PutString(x)
		}
		return e.Err()
	}
	switch p.Type {
	case idl.Int:
		x, ok := v.([]int64)
		if !ok {
			return fmt.Errorf("want []int64, got %T", v)
		}
		if len(x) != count {
			return fmt.Errorf("array length %d, IDL dimensions give %d", len(x), count)
		}
		e.PutInt64s(x)
	case idl.Double:
		x, ok := v.([]float64)
		if !ok {
			return fmt.Errorf("want []float64, got %T", v)
		}
		if len(x) != count {
			return fmt.Errorf("array length %d, IDL dimensions give %d", len(x), count)
		}
		e.PutFloat64s(x)
	case idl.Float:
		x, ok := v.([]float32)
		if !ok {
			return fmt.Errorf("want []float32, got %T", v)
		}
		if len(x) != count {
			return fmt.Errorf("array length %d, IDL dimensions give %d", len(x), count)
		}
		e.PutFloat32s(x)
	default:
		return fmt.Errorf("unsupported array type %v", p.Type)
	}
	return e.Err()
}

// decodeArg reads one argument value per its IDL parameter. A non-nil
// bulk switches arrays to bulk-mode decoding, where a marker word may
// divert the element bytes to a segment of the reassembled payload. An
// array is converted once, from wherever its bytes are straight into
// its value, which comes from arrays' pool when one is given.
func decodeArg(d *xdr.Decoder, p *idl.Param, count int, bulk *BulkInfo, arrays *Arrays) (idl.Value, error) {
	if p.IsScalar() {
		switch p.Type {
		case idl.Int:
			return d.Int64(), d.Err()
		case idl.Double:
			return d.Float64(), d.Err()
		case idl.Float:
			return d.Float32(), d.Err()
		case idl.String:
			return d.String(), d.Err()
		}
		return nil, fmt.Errorf("unsupported scalar type %v", p.Type)
	}
	src, le, err := locateArray(d, p, count, bulk)
	if err != nil {
		return nil, err
	}
	v := arrays.makeArray(p.Type, count, false)
	fillRaw(bulkSpanFor(p, v), src, le, bulkElemSize(p.Type))
	return v, nil
}

// locateArray reads one array argument's count word — and in bulk mode
// its marker — and finds the count elements' bytes without converting
// them: behind the count word in the head (XDR, so big-endian), in a
// segment of the reassembled payload (the sender's order), or in the
// receiver's argument cache (little-endian). The count word is held to
// the IDL-derived count, and the bytes to what the payload really
// holds, before the caller allocates or writes anything for the array,
// so a hostile count costs an error and no memory. The returned bytes
// alias the payload (or the pinned cache entry).
func locateArray(d *xdr.Decoder, p *idl.Param, count int, bulk *BulkInfo) (src []byte, le bool, err error) {
	if p.Type != idl.Int && p.Type != idl.Double && p.Type != idl.Float {
		return nil, false, fmt.Errorf("unsupported array type %v", p.Type)
	}
	elem := bulkElemSize(p.Type)
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return nil, false, err
	}
	marked := n&bulkArgFlag != 0
	if marked && bulk == nil {
		// A monolithic payload has no markers: the set top bit is a
		// negative XDR length.
		return nil, false, fmt.Errorf("%w: %d", xdr.ErrNegativeLen, int32(n))
	}
	cnt := int(n)
	if marked {
		cnt = int(n &^ (bulkArgFlag | bulkDigestFlag))
	}
	switch {
	case marked && n&bulkDigestFlag != 0:
		// Digest marker: the bytes are not in this message. Two u64
		// words carry the content digest, resolved from the receiver's
		// argument cache (cache granted, a non-nil Resolver, only).
		dig := Digest{Hi: d.Uint64(), Lo: d.Uint64()}
		if err := d.Err(); err != nil {
			return nil, false, err
		}
		if cnt != count {
			break
		}
		if bulk.Resolver == nil {
			return nil, false, fmt.Errorf("digest marker %v on a connection without an argument cache", dig)
		}
		src, ok := bulk.Resolver.ResolveDigest(dig)
		if !ok {
			return nil, false, fmt.Errorf("%w: %v", ErrDigestMiss, dig)
		}
		if len(src) != cnt*elem {
			return nil, false, fmt.Errorf("cached entry %v holds %d bytes, marker wants %d×%d", dig, len(src), cnt, elem)
		}
		// Cached bytes are normalized to little-endian at insert.
		return src, true, nil
	case marked:
		off := int(d.Uint32())
		if err := d.Err(); err != nil {
			return nil, false, err
		}
		if cnt != count {
			break
		}
		if off < bulk.HeadLen || off > len(bulk.Base) || cnt > (len(bulk.Base)-off)/elem {
			return nil, false, fmt.Errorf("bulk segment at %d (%d×%d bytes) out of range", off, cnt, elem)
		}
		src := bulk.Base[off : off+cnt*elem]
		if bulk.Resolver != nil {
			// A cache-enabled receiver retains the uploaded bytes so
			// the next call can reference them by digest. The resolver
			// copies; src aliases the reassembly buffer.
			bulk.Resolver.RetainSegment(src, bulk.LE, elem)
		}
		return src, bulk.LE, nil
	case cnt == count:
		if src = d.View(cnt * elem); d.Err() != nil {
			return nil, false, d.Err()
		}
		return src, false, nil
	}
	return nil, false, fmt.Errorf("array length %d, IDL dimensions give %d", cnt, count)
}
