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
// else — scalars, strings, small arrays, the deadline and retain words — is
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

// EncodeCallRequestChunks is EncodeRequest for a MsgCall under
// segments at threshold, returning (nil, nil) when no argument is
// eligible (pinned by benchmark/layers.go, like the fronts in
// messages.go).
func EncodeCallRequestChunks(info *idl.Info, req *CallRequest, threshold int) (*BulkMsg, error) {
	bm, fb, err := EncodeRequest(info, MsgCall, req, 0, Shape{threshold: threshold})
	fb.Release()
	return bm, err
}

// EncodeCallReplyChunks is EncodeReply with segments at threshold,
// returning (nil, nil) when no result is eligible (pinned likewise).
func EncodeCallReplyChunks(info *idl.Info, tm Timings, args []idl.Value, threshold int) (*BulkMsg, error) {
	bm, fb, err := EncodeReply(info, tm, args, Shape{threshold: threshold})
	fb.Release()
	return bm, err
}

// putBulkMarker writes one argument's marker word and offset
// placeholder, recording the patch position and the segment span.
func putBulkMarker(e *xdr.Encoder, fb *Buffer, count int, span []byte, spans *[][]byte, patches *[]int) {
	e.PutUint32(uint32(count) | bulkArgFlag)
	*patches = append(*patches, fb.Len())
	e.PutUint32(0) // patched with the absolute segment offset by finishBulkMsg
	*spans = append(*spans, span)
}

// finishBulkMsg patches segment offsets now that the head length is
// known and assembles the BulkMsg, which takes fb.
func finishBulkMsg(t MsgType, fb *Buffer, spans [][]byte, patches []int) *BulkMsg {
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
	}
}

// bulkElemSize maps an array parameter type to its raw element width.
func bulkElemSize(t idl.Type) int {
	if t == idl.Float {
		return 4
	}
	return 8
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
func decodeCallReply(info *idl.Info, callArgs []idl.Value, dst []any, p []byte, bulk *BulkInfo) (Timings, []idl.Value, error) {
	pd := acquireDecoder(p)
	defer pd.release()
	d := &pd.d
	var t Timings
	t.decode(d)
	if err := d.Err(); err != nil {
		return t, nil, err
	}
	var fewCounts [8]int
	counts, err := info.DimSizes(callArgs, fewCounts[:0])
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
		if a.src, a.le, err = locateArray(d, pa, counts[i], bulk); err != nil {
			return t, nil, fmt.Errorf("protocol: %s result %q: %w", info.Name, pa.Name, err)
		}
		if dst != nil && dst[i] != nil {
			if n, ok := arrayLen(pa, dst[i]); !ok || n != counts[i] {
				return t, nil, fmt.Errorf("protocol: %s result %q: cannot store %d elements into %T of len %d", info.Name, pa.Name, counts[i], dst[i], n)
			}
		}
	}
	if err := atEnd(d, len(p)); err != nil {
		return t, nil, err
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
