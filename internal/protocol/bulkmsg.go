package protocol

import (
	"fmt"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// Chunked call encoding. A bulk-eligible argument (a []float64,
// []float32 or []int64 whose encoded size reaches the threshold) is not
// copied through the XDR encoder: its head position carries a marker
// word (count | bulkArgFlag) plus the absolute offset of its raw
// element bytes within the logical payload, and the slice itself rides
// as a zero-copy segment span streamed by the chunk writer. Everything
// else — scalars, strings, small arrays, the deadline trailer — is
// normal XDR in the head, so a bulk head decodes with the same
// machinery as a monolithic payload.

// bulkSpanFor returns the raw native-order view of an array value that
// can ship as a segment, or nil when the parameter cannot.
func bulkSpanFor(p *idl.Param, v idl.Value) []byte {
	if p.IsScalar() {
		return nil
	}
	switch p.Type {
	case idl.Double:
		if x, ok := v.([]float64); ok {
			return f64Bytes(x)
		}
	case idl.Float:
		if x, ok := v.([]float32); ok {
			return f32Bytes(x)
		}
	case idl.Int:
		if x, ok := v.([]int64); ok {
			return i64Bytes(x)
		}
	}
	return nil
}

// EncodeCallRequestChunks serializes a call for chunked streaming when
// at least one argument is bulk-eligible at the threshold; it returns
// (nil, nil) otherwise and the caller falls back to
// EncodeCallRequestBuf. The returned message's segment spans alias
// req.Args — the caller must not mutate those slices until the send
// completes — and its head buffer is released by BulkMsg.Release.
func EncodeCallRequestChunks(info *idl.Info, req *CallRequest, threshold int) (*BulkMsg, error) {
	return encodeCallRequestChunks(info, req, false, 0, threshold)
}

// EncodeSubmitRequestChunks is EncodeCallRequestChunks for MsgSubmit:
// the idempotency key leads the head, as in EncodeSubmitRequestBuf.
func EncodeSubmitRequestChunks(info *idl.Info, req *CallRequest, key uint64, threshold int) (*BulkMsg, error) {
	return encodeCallRequestChunks(info, req, true, key, threshold)
}

func encodeCallRequestChunks(info *idl.Info, req *CallRequest, keyed bool, key uint64, threshold int) (*BulkMsg, error) {
	if threshold <= 0 {
		return nil, nil
	}
	if len(req.Args) != len(info.Params) {
		return nil, fmt.Errorf("protocol: %s takes %d arguments, got %d", info.Name, len(info.Params), len(req.Args))
	}
	counts, err := info.DimSizes(req.Args)
	if err != nil {
		return nil, err
	}
	size := xdr.SizeString(len(req.Name))
	if keyed {
		size += 8
	}
	if req.Deadline != 0 {
		size += 12
	}
	nbulk := 0
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			continue
		}
		if s := bulkSpanFor(p, req.Args[i]); len(s) >= threshold {
			nbulk++
			size += 8 // marker + offset
		} else {
			size += argSize(p, counts[i], req.Args[i])
		}
	}
	if nbulk == 0 {
		return nil, nil
	}
	fb := AcquireBuffer(size)
	e := fb.Encoder()
	if keyed {
		e.PutUint64(key)
	}
	e.PutString(req.Name)
	spans := make([][]byte, 1, 1+nbulk) // spans[0] becomes the head
	patches := make([]int, 0, nbulk)
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			continue
		}
		if s := bulkSpanFor(p, req.Args[i]); len(s) >= threshold {
			if err := putBulkMarker(e, fb, p, counts[i], s, &spans, &patches); err != nil {
				fb.Release()
				return nil, fmt.Errorf("protocol: %s argument %q: %w", info.Name, p.Name, err)
			}
			continue
		}
		if err := encodeArg(e, p, counts[i], req.Args[i]); err != nil {
			fb.Release()
			return nil, fmt.Errorf("protocol: %s argument %q: %w", info.Name, p.Name, err)
		}
	}
	if req.Deadline != 0 {
		e.PutUint32(callDeadlineMagic)
		e.PutInt64(req.Deadline)
	}
	t := MsgCall
	if keyed {
		t = MsgSubmit
	}
	return finishBulkMsg(t, fb, e, spans, patches)
}

// EncodeCallReplyChunks serializes a MsgCallOK reply for chunked
// streaming when a result array is bulk-eligible; (nil, nil) falls the
// caller back to EncodeCallReplyBuf. Segment spans alias args, which
// must stay live and unmutated until the reply is fully written.
func EncodeCallReplyChunks(info *idl.Info, tm Timings, args []idl.Value, threshold int) (*BulkMsg, error) {
	if threshold <= 0 {
		return nil, nil
	}
	counts, err := info.DimSizes(args)
	if err != nil {
		return nil, err
	}
	size := 24 // three int64 timings
	nbulk := 0
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(true) {
			continue
		}
		if s := bulkSpanFor(p, args[i]); len(s) >= threshold {
			nbulk++
			size += 8
		} else {
			size += argSize(p, counts[i], args[i])
		}
	}
	if nbulk == 0 {
		return nil, nil
	}
	fb := AcquireBuffer(size)
	e := fb.Encoder()
	tm.encode(e)
	spans := make([][]byte, 1, 1+nbulk)
	patches := make([]int, 0, nbulk)
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(true) {
			continue
		}
		if s := bulkSpanFor(p, args[i]); len(s) >= threshold {
			if err := putBulkMarker(e, fb, p, counts[i], s, &spans, &patches); err != nil {
				fb.Release()
				return nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, p.Name, err)
			}
			continue
		}
		if err := encodeArg(e, p, counts[i], args[i]); err != nil {
			fb.Release()
			return nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, p.Name, err)
		}
	}
	return finishBulkMsg(MsgCallOK, fb, e, spans, patches)
}

// putBulkMarker writes one argument's marker word and offset
// placeholder, recording the patch position and the segment span.
func putBulkMarker(e *xdr.Encoder, fb *Buffer, p *idl.Param, count int, span []byte, spans *[][]byte, patches *[]int) error {
	elem := bulkElemSize(p.Type)
	if n := len(span) / elem; n != count {
		return fmt.Errorf("array length %d, IDL dimensions give %d", n, count)
	}
	e.PutUint32(uint32(count) | bulkArgFlag)
	*patches = append(*patches, fb.Len())
	e.PutUint32(0) // patched with the absolute segment offset below
	*spans = append(*spans, span)
	return nil
}

// finishBulkMsg patches segment offsets now that the head length is
// known and assembles the BulkMsg. It owns fb on the error path.
func finishBulkMsg(t MsgType, fb *Buffer, e *xdr.Encoder, spans [][]byte, patches []int) (*BulkMsg, error) {
	if err := e.Err(); err != nil {
		fb.Release()
		return nil, err
	}
	payload := fb.Payload()
	headLen := len(payload)
	off := headLen
	for i, pos := range patches {
		putU32(payload[pos:], uint32(off))
		off += len(spans[i+1])
	}
	spans[0] = payload
	return &BulkMsg{
		Type:    t,
		Spans:   spans,
		headLen: headLen,
		total:   off,
		le:      hostLittle,
		head:    fb,
	}, nil
}

// bulkElemSize maps an array parameter type to its raw element width.
func bulkElemSize(t idl.Type) int {
	if t == idl.Float {
		return 4
	}
	return 8
}

// DecodeCallArgsBulk is DecodeCallArgs for a reassembled bulk payload:
// rest is the head remainder after DecodeCallName (bulk.Head()-sliced
// by the caller) and bulk supplies the segment base. A nil bulk decodes
// monolithically and rejects markers.
func DecodeCallArgsBulk(info *idl.Info, rest []byte, bulk *BulkInfo) ([]idl.Value, error) {
	args, _, err := DecodeCallArgsDeadlineBulk(info, rest, bulk)
	return args, err
}

// DecodeCallReplyBulk is DecodeCallReply for a reassembled bulk reply:
// p must be the head portion (bulk.Head()) when bulk is non-nil.
func DecodeCallReplyBulk(info *idl.Info, callArgs []idl.Value, p []byte, bulk *BulkInfo) (Timings, []idl.Value, error) {
	return decodeCallReply(info, callArgs, nil, p, bulk)
}

// DecodeCallReplyInto is DecodeCallReplyBulk for a caller that knows
// where the results are going. dst has one entry per parameter; an
// array result whose entry is a slice of the parameter's element type
// and IDL-derived length is converted — or, from a bulk segment in the
// host's order, moved — straight into it, and that slice is what the
// returned vector holds for it. A nil entry discards the result
// unconverted. Scalar results are returned as values whatever their
// entry holds. The whole reply is validated first — every count word,
// every segment, every destination's shape — so a reply that fails to
// decode leaves every destination exactly as the caller passed it,
// inout arrays and outputs aliasing an input included: the caller can
// send the same arguments again.
func DecodeCallReplyInto(info *idl.Info, callArgs []idl.Value, dst []any, p []byte, bulk *BulkInfo) (Timings, []idl.Value, error) {
	if len(dst) != len(info.Params) {
		return Timings{}, nil, fmt.Errorf("protocol: %s takes %d arguments, got %d destinations", info.Name, len(info.Params), len(dst))
	}
	return decodeCallReply(info, callArgs, dst, p, bulk)
}

// arraySrc is one array result located in a reply, not yet converted.
type arraySrc struct {
	src []byte
	le  bool
}

// decodeCallReply decodes a call reply, array results into dst's
// entries when dst is non-nil and into new caller-owned slices when it
// is nil.
//
//ninflint:hotpath
func decodeCallReply(info *idl.Info, callArgs []idl.Value, dst []any, p []byte, bulk *BulkInfo) (Timings, []idl.Value, error) {
	pd := acquireDecoder(p)
	defer pd.release()
	d := &pd.d
	var t Timings
	t.decode(d)
	if err := d.Err(); err != nil {
		return t, nil, err
	}
	counts, err := info.DimSizes(callArgs)
	if err != nil {
		return t, nil, err
	}
	out := make([]idl.Value, len(info.Params))
	var few [8]arraySrc // keeps the usual call's bookkeeping off the heap
	located := few[:]
	if len(info.Params) > len(few) {
		located = make([]arraySrc, len(info.Params))
	}
	// First pass, which writes to no destination: scalars are decoded,
	// arrays only located and their destinations checked.
	for i := range info.Params {
		pa := &info.Params[i]
		if !pa.Mode.Ships(true) {
			continue
		}
		if pa.IsScalar() {
			if out[i], err = decodeArg(d, pa, 0, nil, nil); err != nil {
				return t, nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, pa.Name, err)
			}
			continue
		}
		a := &located[i]
		//lint:ninflint xdrsym — decodeArg taken apart: arrays are located in this pass and converted in the next, so no destination is written before the whole reply is known good
		if a.src, a.le, err = locateArray(d, pa, counts[i], bulk); err != nil {
			return t, nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, pa.Name, err)
		}
		if dst != nil && dst[i] != nil {
			if n, ok := arrayLen(pa, dst[i]); !ok || n != counts[i] {
				return t, nil, fmt.Errorf("protocol: %s result %q: cannot store %d elements into %T of len %d", info.Name, pa.Name, counts[i], dst[i], n)
			}
		}
	}
	for i := range info.Params {
		pa := &info.Params[i]
		if !pa.Mode.Ships(true) || pa.IsScalar() {
			continue
		}
		switch {
		case dst == nil:
			out[i] = (*Arrays)(nil).makeArray(pa.Type, counts[i], false)
		case dst[i] != nil:
			out[i] = dst[i]
		default:
			continue // the caller discards this result
		}
		fillRaw(bulkSpanFor(pa, out[i]), located[i].src, located[i].le, bulkElemSize(pa.Type))
	}
	return t, out, nil
}
