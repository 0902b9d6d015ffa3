package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ninf/internal/idl"
)

// streamBulk writes m as its begin frame plus chunks of at most limit
// data bytes, exactly as the serialized writers do, and releases m.
func streamBulk(t *testing.T, w io.Writer, m *BulkMsg, seq uint32, limit int) {
	t.Helper()
	defer m.Release()
	fb := m.EncodeBegin()
	if err := WriteMuxFrameBuf(w, MsgBulkBegin, seq, fb); err != nil {
		t.Fatal(err)
	}
	fb.Release()
	cur := m.Cursor()
	for {
		done, err := cur.WriteChunk(w, seq, limit)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
	}
}

// reassemble reads the framed stream to its end and returns the one
// message it carries — none in discard mode.
func reassemble(t *testing.T, r io.Reader, discard bool) *BulkDone {
	t.Helper()
	done, err := readBulkStream(r, 0, discard)
	if err != nil {
		t.Fatal(err)
	}
	if discard && len(done) == 0 {
		return nil
	}
	if len(done) != 1 {
		t.Fatalf("stream carried %d complete bulk messages, want 1", len(done))
	}
	return done[0]
}

// TestBulkCallRequestChunkedRoundTrip pins the tentpole equivalence:
// a call request streamed as chunked bulk frames must decode to
// exactly the same name, arguments, and deadline as the same request
// encoded monolithically.
func TestBulkCallRequestChunkedRoundTrip(t *testing.T) {
	info := dmmulInfo(t)
	n := 48
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i) * 0.5
		b[i] = float64(i%13) - 6
	}
	req := &CallRequest{
		Name:     "dmmul",
		Args:     []idl.Value{int64(n), a, b, nil},
		Deadline: 1234567890123,
	}

	m, err := EncodeCallRequestChunks(info, req, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("request above threshold not chunked")
	}
	if m.HeadLen() >= m.Total() {
		t.Fatalf("no segments: head %d, total %d", m.HeadLen(), m.Total())
	}

	var wire bytes.Buffer
	streamBulk(t, &wire, m, 7, 4096)
	bd := reassemble(t, &wire, false)
	defer bd.FB.Release()
	if bd.Type != MsgCall {
		t.Fatalf("inner type %v", bd.Type)
	}

	name, rest, err := DecodeCallName(bd.Bulk.Head())
	if err != nil {
		t.Fatal(err)
	}
	if name != "dmmul" {
		t.Fatalf("name %q", name)
	}
	vals, deadline, err := DecodeCallArgsPooled(info, rest, &bd.Bulk, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if deadline != req.Deadline {
		t.Fatalf("deadline %d, want %d", deadline, req.Deadline)
	}
	if vals[0].(int64) != int64(n) {
		t.Fatalf("n = %v", vals[0])
	}
	if !reflect.DeepEqual(vals[1], a) || !reflect.DeepEqual(vals[2], b) {
		t.Fatal("bulk-decoded arrays differ from originals")
	}

	// Decoded arrays must be copies: the reassembly buffer is pooled
	// and reused after release, so aliasing it would corrupt results.
	base0 := bd.Bulk.Base[bd.Bulk.HeadLen]
	vals1 := vals[1].([]float64)
	bd.Bulk.Base[bd.Bulk.HeadLen] ^= 0xff
	if f64Bytes(vals1)[0] != base0^0xff && !reflect.DeepEqual(vals[1], a) {
		t.Fatal("unreachable")
	}
	if !reflect.DeepEqual(vals[1], a) {
		t.Fatal("decoded array aliases the reassembly buffer")
	}
	bd.Bulk.Base[bd.Bulk.HeadLen] = base0
}

// TestBulkSubmitRequestChunkedRoundTrip: the keyed (two-phase) variant
// carries its idempotency key in the head.
func TestBulkSubmitRequestChunkedRoundTrip(t *testing.T) {
	info := dmmulInfo(t)
	n := 32
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i)
		b[i] = 1
	}
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), a, b, nil}}
	m, _, err := EncodeRequest(info, MsgSubmit, req, 0xdeadbeefcafe, NewShape(false, 1024, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("submit above threshold not chunked")
	}
	var wire bytes.Buffer
	streamBulk(t, &wire, m, 3, 8192)
	bd := reassemble(t, &wire, false)
	defer bd.FB.Release()
	if bd.Type != MsgSubmit {
		t.Fatalf("inner type %v", bd.Type)
	}
	key, rest, err := DecodeSubmitKey(bd.Bulk.Head())
	if err != nil {
		t.Fatal(err)
	}
	if key != 0xdeadbeefcafe {
		t.Fatalf("key %#x", key)
	}
	name, rest, err := DecodeCallName(rest)
	if err != nil {
		t.Fatal(err)
	}
	if name != "dmmul" {
		t.Fatalf("name %q", name)
	}
	vals, _, err := DecodeCallArgsPooled(info, rest, &bd.Bulk, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals[1], a) {
		t.Fatal("bulk-decoded submit args differ")
	}
}

// TestBulkCallReplyChunkedRoundTrip: replies chunk the same way, and
// the bulk decode must agree with the monolithic decode of the same
// reply.
func TestBulkCallReplyChunkedRoundTrip(t *testing.T) {
	info := dmmulInfo(t)
	n := 40
	c := make([]float64, n*n)
	for i := range c {
		c[i] = math.Sqrt(float64(i))
	}
	args := []idl.Value{int64(n), nil, nil, c}
	tm := Timings{Enqueue: 10, Dequeue: 20, Complete: 30}

	m, err := EncodeCallReplyChunks(info, tm, args, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("reply above threshold not chunked")
	}
	var wire bytes.Buffer
	streamBulk(t, &wire, m, 9, 2048)
	bd := reassemble(t, &wire, false)
	defer bd.FB.Release()
	if bd.Type != MsgCallOK {
		t.Fatalf("inner type %v", bd.Type)
	}

	callArgs := []idl.Value{int64(n), nil, nil, nil}
	gotTm, out, err := DecodeCallReplyBulk(info, callArgs, bd.Bulk.Head(), &bd.Bulk)
	if err != nil {
		t.Fatal(err)
	}
	if gotTm != tm {
		t.Fatalf("timings %+v, want %+v", gotTm, tm)
	}
	if !reflect.DeepEqual(out[3], c) {
		t.Fatal("bulk-decoded reply array differs")
	}

	// Monolithic encode of the same reply must decode identically.
	mono, err := EncodeCallReplyBuf(info, tm, args)
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Release()
	_, monoOut, err := DecodeCallReply(info, callArgs, mono.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(monoOut[3], out[3]) {
		t.Fatal("chunked and monolithic decodes disagree")
	}
}

// TestBulkBelowThresholdDeclined: small messages stay monolithic.
func TestBulkBelowThresholdDeclined(t *testing.T) {
	info := dmmulInfo(t)
	n := 4
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), a, b, nil}}
	m, err := EncodeCallRequestChunks(info, req, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		m.Release()
		t.Fatal("small request chunked")
	}
	// Threshold 0 means chunking disabled outright.
	if m, _ := EncodeCallRequestChunks(info, req, 0); m != nil {
		m.Release()
		t.Fatal("threshold 0 chunked")
	}
}

// TestMonolithicDecodeRejectsMarkers: a bulk head handed to the plain
// decoder (no BulkInfo) must fail loudly, not misread marker words as
// array contents.
func TestMonolithicDecodeRejectsMarkers(t *testing.T) {
	info := dmmulInfo(t)
	n := 16
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), a, b, nil}}
	m, err := EncodeCallRequestChunks(info, req, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("request not chunked")
	}
	defer m.Release()
	fb := m.EncodeBegin()
	fb.Release()
	head := make([]byte, m.HeadLen())
	// Reassemble just the head by streaming to a buffer once.
	var wire bytes.Buffer
	cur := m.Cursor()
	for {
		done, err := cur.WriteChunk(&wire, 1, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// Chunk payloads start after the 16-byte mux header + 8-byte chunk
	// header; the head is the first HeadLen bytes of the message.
	copy(head, wire.Bytes()[16+8:16+8+m.HeadLen()])
	_, rest, err := DecodeCallName(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0); err == nil {
		t.Fatal("monolithic decode accepted a bulk-marker head")
	}
}

// TestBulkChunkCRCCorruption: a flipped payload bit must fail the
// chunk CRC and poison the connection, not deliver corrupt data.
func TestBulkChunkCRCCorruption(t *testing.T) {
	m := RawBulkMsg(MsgCall, bytes.Repeat([]byte{0xab}, 4096))
	var wire bytes.Buffer
	streamBulk(t, &wire, m, 5, 1024)
	raw := wire.Bytes()
	// Flip a data byte inside the second chunk (first chunk frame
	// starts after the begin frame; corrupt deep into the stream).
	raw[len(raw)-10] ^= 0x01

	br := bufio.NewReader(bytes.NewReader(raw))
	ra := NewReassembler(0, 0)
	defer ra.Close()
	var lastErr error
	for {
		typ, seq, n, err := ReadMuxHeader(br, 0)
		if err != nil {
			t.Fatalf("stream ended without CRC failure: %v", err)
		}
		if typ == MsgBulkBegin {
			fb, err := ReadMuxPayload(br, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := ra.Begin(seq, fb.Payload(), false); err != nil {
				t.Fatal(err)
			}
			fb.Release()
			continue
		}
		if _, lastErr = ra.ReadChunk(br, seq, n); lastErr != nil {
			break
		}
	}
	if !strings.Contains(lastErr.Error(), "CRC") {
		t.Fatalf("corruption error %v, want CRC mismatch", lastErr)
	}
	if got := OpenBulkReassemblies(); got != 1 {
		t.Fatalf("open reassemblies before Close = %d, want 1", got)
	}
	ra.Close()
	if got := OpenBulkReassemblies(); got != 0 {
		t.Fatalf("open reassemblies after Close = %d, want 0", got)
	}
}

// TestBulkChunkOffsetViolation: chunks must arrive contiguously from
// offset 0; a gap or replay is a protocol error.
func TestBulkChunkOffsetViolation(t *testing.T) {
	m := RawBulkMsg(MsgCall, make([]byte, 2048))
	var wire bytes.Buffer
	streamBulk(t, &wire, m, 2, 1024)

	br := bufio.NewReader(bytes.NewReader(wire.Bytes()))
	ra := NewReassembler(0, 0)
	defer ra.Close()
	typ, seq, n, err := ReadMuxHeader(br, 0)
	if err != nil || typ != MsgBulkBegin {
		t.Fatalf("begin: %v %v", typ, err)
	}
	fb, err := ReadMuxPayload(br, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(seq, fb.Payload(), false); err != nil {
		t.Fatal(err)
	}
	fb.Release()
	// Skip the first chunk frame entirely, then feed the second: its
	// offset (1024) no longer matches the expected position (0).
	if _, _, n, err = ReadMuxHeader(br, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
		t.Fatal(err)
	}
	if _, _, n, err = ReadMuxHeader(br, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadChunk(br, seq, n); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("gap error %v, want offset violation", err)
	}
}

// TestBulkChunkWithoutBegin: a chunk for an unknown seq is a protocol
// error.
func TestBulkChunkWithoutBegin(t *testing.T) {
	m := RawBulkMsg(MsgCall, make([]byte, 512))
	var wire bytes.Buffer
	cur := m.Cursor()
	if _, err := cur.WriteChunk(&wire, 11, 1024); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(wire.Bytes()))
	ra := NewReassembler(0, 0)
	defer ra.Close()
	_, seq, n, err := ReadMuxHeader(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadChunk(br, seq, n); err == nil {
		t.Fatal("chunk without begin accepted")
	}
}

// TestBulkDiscardMode: an abandoned seq's chunks are validated and
// dropped without ever holding a buffer.
func TestBulkDiscardMode(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5c}, 200<<10)
	m := RawBulkMsg(MsgFetchOK, payload)
	var wire bytes.Buffer
	streamBulk(t, &wire, m, 4, 64<<10)
	before := OpenBulkReassemblies()
	if bd := reassemble(t, &wire, true); bd != nil {
		t.Fatal("discard mode delivered a message")
	}
	if got := OpenBulkReassemblies(); got != before {
		t.Fatalf("discard mode leaked a reassembly buffer: %d != %d", got, before)
	}
}

// TestReassemblerAbortAndClose: Abort and Close release buffers and
// settle the process-wide gauge.
func TestReassemblerAbortAndClose(t *testing.T) {
	m := RawBulkMsg(MsgCall, make([]byte, 4096))
	fb := m.EncodeBegin()
	begin := append([]byte(nil), fb.Payload()...)
	fb.Release()
	m.Release()

	base := OpenBulkReassemblies()
	ra := NewReassembler(0, 0)
	if err := ra.Begin(21, begin, false); err != nil {
		t.Fatal(err)
	}
	if got := OpenBulkReassemblies(); got != base+1 {
		t.Fatalf("gauge after begin = %d, want %d", got, base+1)
	}
	ra.Abort(21)
	if got := OpenBulkReassemblies(); got != base {
		t.Fatalf("gauge after abort = %d, want %d", got, base)
	}
	if err := ra.Begin(22, begin, false); err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(22, begin, false); err == nil {
		t.Fatal("duplicate begin accepted")
	}
	ra.Close()
	if got := OpenBulkReassemblies(); got != base {
		t.Fatalf("gauge after close = %d, want %d", got, base)
	}
}

// TestReassemblerOpenCap: a peer opening unbounded concurrent
// reassemblies is cut off.
func TestReassemblerOpenCap(t *testing.T) {
	m := RawBulkMsg(MsgCall, make([]byte, 64))
	fb := m.EncodeBegin()
	begin := append([]byte(nil), fb.Payload()...)
	fb.Release()
	m.Release()
	ra := NewReassembler(0, 2)
	defer ra.Close()
	if err := ra.Begin(1, begin, false); err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(2, begin, false); err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(3, begin, false); err == nil {
		t.Fatal("reassembly flood accepted")
	}
}

// fillNew decodes src (byte order le) into a new slice shaped like want.
func fillNew[T float64 | float32 | int64](want []T, view func([]T) []byte, src []byte, le bool) []T {
	got := make([]T, len(want))
	fillRaw(view(got), src, le, len(src)/len(want))
	return got
}

// TestRawVecForeignEndian pins receiver-makes-it-right: the same
// logical vector decodes identically whether the wire bytes are
// little- or big-endian.
func TestRawVecForeignEndian(t *testing.T) {
	v := []float64{1.5, -2.25, math.Pi, 0, math.Inf(1)}
	le := make([]byte, 8*len(v))
	be := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(le[8*i:], math.Float64bits(f))
		binary.BigEndian.PutUint64(be[8*i:], math.Float64bits(f))
	}
	if got := fillNew(v, f64Bytes, le, true); !reflect.DeepEqual(got, v) {
		t.Fatalf("LE decode %v", got)
	}
	if got := fillNew(v, f64Bytes, be, false); !reflect.DeepEqual(got, v) {
		t.Fatalf("BE decode %v", got)
	}

	iv := []int64{1, -1, 1 << 40, math.MinInt64}
	ile := make([]byte, 8*len(iv))
	ibe := make([]byte, 8*len(iv))
	for i, x := range iv {
		binary.LittleEndian.PutUint64(ile[8*i:], uint64(x))
		binary.BigEndian.PutUint64(ibe[8*i:], uint64(x))
	}
	if got := fillNew(iv, i64Bytes, ile, true); !reflect.DeepEqual(got, iv) {
		t.Fatalf("LE int decode %v", got)
	}
	if got := fillNew(iv, i64Bytes, ibe, false); !reflect.DeepEqual(got, iv) {
		t.Fatalf("BE int decode %v", got)
	}

	fv := []float32{1.5, -0.25, 3e7}
	fle := make([]byte, 4*len(fv))
	fbe := make([]byte, 4*len(fv))
	for i, f := range fv {
		binary.LittleEndian.PutUint32(fle[4*i:], math.Float32bits(f))
		binary.BigEndian.PutUint32(fbe[4*i:], math.Float32bits(f))
	}
	if got := fillNew(fv, f32Bytes, fle, true); !reflect.DeepEqual(got, fv) {
		t.Fatalf("LE f32 decode %v", got)
	}
	if got := fillNew(fv, f32Bytes, fbe, false); !reflect.DeepEqual(got, fv) {
		t.Fatalf("BE f32 decode %v", got)
	}
}

// TestBulkEncodeZeroCopy pins the perf_opt acceptance: chunk-encoding
// a call request must not copy the bulk argument. The head buffer and
// bookkeeping are small; allocated bytes per op must stay far below
// the 8 MiB argument.
func TestBulkEncodeZeroCopy(t *testing.T) {
	info := dmmulInfo(t)
	n := 1024 // 8 MiB per matrix
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), a, b, nil}}

	res := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			m, err := EncodeCallRequestChunks(info, req, DefaultBulkThreshold)
			if err != nil || m == nil {
				bm.Fatalf("encode: %v %v", m, err)
			}
			cur := m.Cursor()
			for {
				done, err := cur.WriteChunk(io.Discard, 1, DefaultBulkChunk)
				if err != nil {
					bm.Fatal(err)
				}
				if done {
					break
				}
			}
			m.Release()
		}
	})
	if bpo := res.AllocedBytesPerOp(); bpo > 64<<10 {
		t.Fatalf("chunked encode allocates %d B/op for a 16 MiB call — the bulk argument is being copied", bpo)
	}
}

// readBulkStream is the receiving side of a mux connection reduced to
// its bulk handling: it reads v2 frames from r until r ends, feeding
// begin, chunk and abort frames to one Reassembler (in discard mode if
// asked) and skipping every other frame, and returns the messages
// completed before the first error. A stream that ends between frames
// is not an error.
func readBulkStream(r io.Reader, maxPayload int, discard bool) (done []*BulkDone, err error) {
	br := bufio.NewReader(r)
	ra := NewReassembler(maxPayload, 0)
	defer ra.Close()
	for {
		typ, seq, n, err := ReadMuxHeader(br, maxPayload)
		if err == io.EOF {
			return done, nil
		}
		if err != nil {
			return done, err
		}
		if typ == MsgBulkChunk {
			bd, err := ra.ReadChunk(br, seq, n)
			if err != nil {
				return done, err
			}
			if bd != nil {
				done = append(done, bd)
			}
			continue
		}
		fb, err := ReadMuxPayload(br, n)
		if err != nil {
			return done, err
		}
		switch typ {
		case MsgBulkBegin:
			err = ra.Begin(seq, fb.Payload(), discard)
		case MsgBulkAbort:
			ra.Abort(seq)
		}
		fb.Release()
		if err != nil {
			return done, err
		}
	}
}

// chunkLimit draws a chunk limit from 1 to DefaultBulkChunk, every
// power-of-two range equally likely, so single bytes and whole 512 KiB
// chunks both turn up within one message.
func chunkLimit(rng *rand.Rand) int {
	return 1 + rng.Intn(1<<rng.Intn(20))
}

// TestBulkMixedChunkSizes: the sender may cut a message wherever it
// likes — the mux writer sizes each chunk from the write rate it
// observes, so no two need be alike. One multi-span message per round
// goes through WriteChunk at a fresh limit per chunk; the receiver must
// hand back the identical payload, and the same stream with one bit
// flipped anywhere in one chunk's data or checksum must fail on that
// chunk with the CRC error, delivering nothing.
func TestBulkMixedChunkSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 24; round++ {
		spans := make([][]byte, 1+rng.Intn(4))
		var payload []byte
		for i := range spans {
			spans[i] = make([]byte, 1+rng.Intn(700<<10))
			rng.Read(spans[i])
			payload = append(payload, spans[i]...)
		}
		m := &BulkMsg{Type: MsgCall, Spans: spans, headLen: len(spans[0]), total: len(payload), le: hostLittle}
		const seq = 9
		var wire bytes.Buffer
		fb := m.EncodeBegin()
		if err := WriteMuxFrameBuf(&wire, MsgBulkBegin, seq, fb); err != nil {
			t.Fatal(err)
		}
		fb.Release()
		var starts, limits []int // per chunk: where its frame starts on the wire, the limit it was cut at
		for cur, done := m.Cursor(), false; !done; {
			limit, sent := chunkLimit(rng), cur.Sent()
			starts, limits = append(starts, wire.Len()), append(limits, limit)
			var err error
			if done, err = cur.WriteChunk(&wire, seq, limit); err != nil {
				t.Fatal(err)
			}
			if n := cur.Sent() - sent; n != min(limit, len(payload)-sent) {
				t.Fatalf("round %d: WriteChunk at limit %d with %d bytes left wrote %d", round, limit, len(payload)-sent, n)
			}
		}
		starts = append(starts, wire.Len())

		got, err := readBulkStream(bytes.NewReader(wire.Bytes()), 0, false)
		if err != nil || len(got) != 1 {
			t.Fatalf("round %d (limits %v): %d messages, err %v", round, limits, len(got), err)
		}
		if !bytes.Equal(got[0].FB.Payload(), payload) || got[0].Bulk.HeadLen != m.headLen || got[0].Type != m.Type {
			t.Fatalf("round %d (limits %v): reassembled message differs from the one sent", round, limits)
		}
		got[0].FB.Release()

		// One bit, in the checksum or the data of one chunk: everything
		// in its frame past the mux header and the offset word.
		k := rng.Intn(len(limits))
		lo, hi := starts[k]+headerSize+4, starts[k+1]
		raw := bytes.Clone(wire.Bytes())
		raw[lo+rng.Intn(hi-lo)] ^= 1 << rng.Intn(8)
		got, err = readBulkStream(bytes.NewReader(raw), 0, false)
		if err == nil || !strings.Contains(err.Error(), "CRC mismatch") || len(got) != 0 {
			t.Fatalf("round %d: bit flipped in chunk %d of %d: %d messages, err %v; want the CRC error", round, k, len(limits), len(got), err)
		}
		if n := OpenBulkReassemblies(); n != 0 {
			t.Fatalf("round %d: %d reassemblies left open", round, n)
		}
	}
}
