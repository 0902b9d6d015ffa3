package protocol

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ninf/internal/idl"
)

// randomInterface builds a random but valid Ninf interface: a few
// scalar int inputs first (so dimension expressions have referents),
// then a mix of scalars and arrays in all modes.
func randomInterface(r *rand.Rand) *idl.Info {
	in := &idl.Info{Name: "r", Language: "go", Target: "r"}
	nScalars := 1 + r.Intn(3)
	var scalarNames []string
	for i := 0; i < nScalars; i++ {
		name := fmt.Sprintf("s%d", i)
		in.Params = append(in.Params, idl.Param{Name: name, Mode: idl.In, Type: idl.Int})
		scalarNames = append(scalarNames, name)
	}
	nRest := r.Intn(5)
	for i := 0; i < nRest; i++ {
		p := idl.Param{
			Name: fmt.Sprintf("a%d", i),
			Mode: []idl.Mode{idl.In, idl.Out, idl.InOut}[r.Intn(3)],
			Type: []idl.Type{idl.Int, idl.Double, idl.Float}[r.Intn(3)],
		}
		dims := 1 + r.Intn(2)
		for d := 0; d < dims; d++ {
			ref := r.Intn(len(scalarNames))
			var e idl.Expr = idl.Ref{Name: scalarNames[ref], Index: ref}
			if r.Intn(2) == 0 {
				e = &idl.BinOp{Op: idl.OpAdd, L: e, R: idl.Num(int64(r.Intn(3)))}
			}
			p.Dims = append(p.Dims, e)
		}
		in.Params = append(in.Params, p)
	}
	if err := idl.Check(in); err != nil {
		panic(err)
	}
	return in
}

// randomArgs builds a matching argument vector with small scalar
// values so arrays stay tiny.
func randomArgs(r *rand.Rand, in *idl.Info) []idl.Value {
	args := make([]idl.Value, len(in.Params))
	for i := range in.Params {
		p := &in.Params[i]
		if p.IsScalar() && p.Type == idl.Int {
			args[i] = int64(1 + r.Intn(4))
		}
	}
	counts, err := in.DimSizes(args, nil)
	if err != nil {
		panic(err)
	}
	for i := range in.Params {
		p := &in.Params[i]
		if p.IsScalar() || !p.Mode.Ships(false) {
			continue
		}
		switch p.Type {
		case idl.Int:
			v := make([]int64, counts[i])
			for j := range v {
				v[j] = r.Int63n(1000) - 500
			}
			args[i] = v
		case idl.Double:
			v := make([]float64, counts[i])
			for j := range v {
				v[j] = r.NormFloat64()
			}
			args[i] = v
		case idl.Float:
			v := make([]float32, counts[i])
			for j := range v {
				v[j] = float32(r.NormFloat64())
			}
			args[i] = v
		}
	}
	return args
}

// mapResolver is a receiver's argument cache as a map — what the sender
// was told is warm — counting the digest markers it answers.
type mapResolver struct {
	held     map[Digest][]byte
	resolved *int
}

func (m *mapResolver) ResolveDigest(d Digest) ([]byte, bool) {
	b, ok := m.held[d]
	*m.resolved++
	return b, ok
}
func (m *mapResolver) RetainSegment([]byte, bool, int) {}

// randomShape draws where req's arrays may go: inline only, segments at
// 64 B or 4 KiB, and for half of the segment shapes digest markers for a
// random subset that the returned resolver then answers.
func randomShape(t *testing.T, r *rand.Rand, info *idl.Info, req *CallRequest, resolved *int) (Shape, *mapResolver) {
	t.Helper()
	thr := []int{0, 64, 4096}[r.Intn(3)]
	if thr == 0 || r.Intn(2) == 0 {
		return NewShape(false, thr, nil, nil), nil
	}
	digs, err := CallRequestDigests(info, req, thr)
	if err != nil {
		t.Fatal(err)
	}
	cache := &mapResolver{held: map[Digest][]byte{}, resolved: resolved}
	for i := range info.Params {
		if d, ok := DigestValue(req.Args[i]); ok && r.Intn(2) == 0 {
			cache.held[d], _ = ValueLEBytes(req.Args[i])
		}
	}
	warm := make([]bool, len(digs))
	for i, d := range digs {
		_, warm[i] = cache.held[d]
	}
	return NewShape(true, thr, digs, warm), cache
}

// deliver carries one encoded message to its receiver — through the
// chunk writer and a reassembler when it is a BulkMsg — and returns the
// head to decode with the BulkInfo to decode it against, which is nil
// for a monolithic payload no digest marker can be in.
func deliver(t *testing.T, bm *BulkMsg, fb *Buffer, cache *mapResolver) ([]byte, *BulkInfo) {
	t.Helper()
	if bm == nil {
		head := CopyOut(fb)
		if cache == nil {
			return head, nil
		}
		return head, &BulkInfo{Base: head, HeadLen: len(head), Resolver: cache}
	}
	var wire bytes.Buffer
	streamBulk(t, &wire, bm, 1, 100)
	bd := reassemble(t, &wire, false)
	t.Cleanup(bd.FB.Release)
	if cache != nil {
		bd.Bulk.Resolver = cache
	}
	return bd.Bulk.Head(), &bd.Bulk
}

// TestRandomInterfaceRoundTrips is the protocol's end-to-end property:
// for random interfaces, arguments and shapes, the full server-side
// pipeline (encode request → deliver → decode name → decode args →
// encode reply → deliver → decode reply) preserves every shipped value
// and allocates out arguments at the right sizes.
func TestRandomInterfaceRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	segmented, resolved := 0, 0 // requests that streamed; digest markers answered
	for trial := 0; trial < 300; trial++ {
		info := randomInterface(r)
		args := randomArgs(r, info)
		req := &CallRequest{Name: info.Name, Args: args}

		shape, cache := randomShape(t, r, info, req, &resolved)
		bm, fb, err := EncodeRequest(info, MsgCall, req, 0, shape)
		if err != nil {
			t.Fatalf("trial %d: encode: %v\n%s", trial, err, info)
		}
		if bm != nil {
			segmented++
		}
		head, bulk := deliver(t, bm, fb, cache)
		name, rest, err := DecodeCallName(head)
		if err != nil || name != info.Name {
			t.Fatalf("trial %d: name: %v %q", trial, err, name)
		}
		decoded, _, err := DecodeCallArgsPooled(info, rest, bulk, nil, nil, 0)
		if err != nil {
			t.Fatalf("trial %d: decode args: %v\n%s", trial, err, info)
		}
		counts, err := info.DimSizes(args, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range info.Params {
			p := &info.Params[i]
			if p.Mode.Ships(false) {
				if !reflect.DeepEqual(decoded[i], args[i]) {
					t.Fatalf("trial %d: in-arg %s corrupted\n%s", trial, p.Name, info)
				}
			} else if !p.IsScalar() {
				if lv := reflect.ValueOf(decoded[i]).Len(); lv != counts[i] {
					t.Fatalf("trial %d: out-arg %s allocated %d, want %d", trial, p.Name, lv, counts[i])
				}
			}
		}

		// Server "executes" by filling out args with recognizable
		// values, then replies.
		for i := range info.Params {
			p := &info.Params[i]
			if !p.Mode.Ships(true) {
				continue
			}
			switch v := decoded[i].(type) {
			case []int64:
				for j := range v {
					v[j] = int64(i*1000 + j)
				}
			case []float64:
				for j := range v {
					v[j] = float64(i) + float64(j)/16
				}
			case []float32:
				for j := range v {
					v[j] = float32(i)
				}
			case int64:
				decoded[i] = int64(i)
			case float64:
				decoded[i] = float64(i)
			case float32:
				decoded[i] = float32(i)
			}
		}
		bm, fb, err = EncodeReply(info, Timings{Enqueue: 1, Dequeue: 2, Complete: 3}, decoded, NewShape(false, []int{0, 64, 4096}[r.Intn(3)], nil, nil))
		if err != nil {
			t.Fatalf("trial %d: encode reply: %v", trial, err)
		}
		head, bulk = deliver(t, bm, fb, nil)
		dst := make([]any, len(info.Params))
		for i := range info.Params {
			if p := &info.Params[i]; p.Mode.Ships(true) && !p.IsScalar() {
				dst[i] = (*Arrays)(nil).makeArray(p.Type, counts[i], false)
			}
		}
		tm, out, err := DecodeCallReplyInto(info, args, dst, head, bulk)
		if err != nil {
			t.Fatalf("trial %d: decode reply: %v", trial, err)
		}
		if tm.Enqueue != 1 || tm.Complete != 3 {
			t.Fatalf("trial %d: timings %+v", trial, tm)
		}
		for i := range info.Params {
			p := &info.Params[i]
			if !p.Mode.Ships(true) {
				if out[i] != nil {
					t.Fatalf("trial %d: non-out %s present in reply", trial, p.Name)
				}
				continue
			}
			if !reflect.DeepEqual(out[i], decoded[i]) {
				t.Fatalf("trial %d: out-arg %s corrupted", trial, p.Name)
			}
		}
	}
	if segmented == 0 || resolved == 0 {
		t.Fatalf("%d requests streamed segments, %d digest markers were answered: a placement was never drawn", segmented, resolved)
	}
}
