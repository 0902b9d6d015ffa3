package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// memSink is an encoder sink that is memory: it offers Extend, like
// the protocol layer's frame buffer, so vectors take the in-place path.
type memSink struct{ b []byte }

func (m *memSink) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memSink) Extend(n int) []byte {
	l := len(m.b)
	m.b = append(m.b, make([]byte, n)...)
	return m.b[l:]
}

// vecCodec is one vector type's encode and decode methods plus the
// element's bit pattern, so values compare bit for bit (NaN payloads
// and the sign of zero included).
type vecCodec[T any] struct {
	name     string
	size     int
	put      func(*Encoder, []T)
	get      func(*Decoder) []T
	bits     func(T) uint64
	fromBits func(uint64) T
}

var diffLengths = []int{0, 1, 3, 4, 5, 1023, 1024, 1025, 8192}

// testVecDifferential holds the memory path to the stream path: the
// conversion loops are hand-unrolled and shared, and this is what pins
// them — the same bytes out of both encoders, the same bits out of both
// decoders, at lengths around the unroll factor and the stream chunk.
func testVecDifferential[T any](t *testing.T, c vecCodec[T]) {
	special := []uint64{
		0,
		0x8000000000000000,                     // -0 (float64), MinInt64
		0x80000000,                             // -0 (float32), MinInt32
		0x7ff8000000000001, 0xfff4dead0000beef, // float64 NaNs, quiet and signalling, with payloads
		0x7fc00001, 0xffa0beef, 0x0102030405060708, // float32 NaNs; every byte distinct
	}
	for _, n := range diffLengths {
		v := make([]T, n)
		for i := range v {
			if i < len(special) {
				v[i] = c.fromBits(special[i])
			} else {
				v[i] = c.fromBits(uint64(i)*0x9e3779b97f4a7c15 + 0x0102030405060708)
			}
		}
		var mem memSink
		var stream bytes.Buffer
		em, es := NewEncoder(&mem), NewEncoder(&stream)
		c.put(em, v)
		c.put(es, v)
		if em.Err() != nil || es.Err() != nil {
			t.Fatalf("%s n=%d: encode: %v / %v", c.name, n, em.Err(), es.Err())
		}
		if !bytes.Equal(mem.b, stream.Bytes()) {
			t.Fatalf("%s n=%d: memory and stream encoders disagree", c.name, n)
		}
		if want := int64(4 + n*c.size); em.Len() != want || es.Len() != want {
			t.Fatalf("%s n=%d: Len %d / %d, want %d", c.name, n, em.Len(), es.Len(), want)
		}
		// The bytes are XDR: a count word, then big-endian elements.
		if got := binary.BigEndian.Uint32(mem.b); got != uint32(n) {
			t.Fatalf("%s n=%d: count word %d", c.name, n, got)
		}
		for i, x := range v {
			var got uint64
			if c.size == 8 {
				got = binary.BigEndian.Uint64(mem.b[4+i*8:])
			} else {
				got = uint64(binary.BigEndian.Uint32(mem.b[4+i*4:]))
			}
			if got != c.bits(x) {
				t.Fatalf("%s n=%d: element %d encoded as %#x, want %#x", c.name, n, i, got, c.bits(x))
			}
		}

		var dm Decoder
		dm.ResetBytes(mem.b)
		ds := NewDecoder(bytes.NewReader(mem.b))
		gm, gs := c.get(&dm), c.get(ds)
		if dm.Err() != nil || ds.Err() != nil {
			t.Fatalf("%s n=%d: decode: %v / %v", c.name, n, dm.Err(), ds.Err())
		}
		if len(gm) != n || len(gs) != n {
			t.Fatalf("%s n=%d: decoded %d / %d elements", c.name, n, len(gm), len(gs))
		}
		for i := range v {
			if c.bits(gm[i]) != c.bits(v[i]) || c.bits(gs[i]) != c.bits(v[i]) {
				t.Fatalf("%s n=%d: element %d decoded as %#x (memory) %#x (stream), want %#x",
					c.name, n, i, c.bits(gm[i]), c.bits(gs[i]), c.bits(v[i]))
			}
		}
		if dm.Len() != ds.Len() || dm.Len() != int64(len(mem.b)) {
			t.Fatalf("%s n=%d: Len %d (memory) %d (stream), want %d", c.name, n, dm.Len(), ds.Len(), len(mem.b))
		}

		// A truncated tail reads the same from both sources, at every
		// cut point of a small vector: same Len, same error.
		if n == 0 || n > 5 {
			continue
		}
		for cut := 0; cut < len(mem.b); cut++ {
			dm.ResetBytes(mem.b[:cut])
			ds := NewDecoder(bytes.NewReader(mem.b[:cut]))
			c.get(&dm)
			c.get(ds)
			if dm.Err() == nil || ds.Err() == nil {
				t.Fatalf("%s n=%d cut=%d: truncated vector decoded: %v / %v", c.name, n, cut, dm.Err(), ds.Err())
			}
			if dm.Err().Error() != ds.Err().Error() || errors.Unwrap(dm.Err()) != errors.Unwrap(ds.Err()) {
				t.Fatalf("%s n=%d cut=%d: error %q (memory) vs %q (stream)", c.name, n, cut, dm.Err(), ds.Err())
			}
			if dm.Len() != ds.Len() {
				t.Fatalf("%s n=%d cut=%d: Len %d (memory) vs %d (stream)", c.name, n, cut, dm.Len(), ds.Len())
			}
		}
	}
}

func TestVectorMemoryVsStream(t *testing.T) {
	testVecDifferential(t, vecCodec[float64]{"float64", 8,
		(*Encoder).PutFloat64s, (*Decoder).Float64s, math.Float64bits, math.Float64frombits})
	testVecDifferential(t, vecCodec[float32]{"float32", 4,
		(*Encoder).PutFloat32s, (*Decoder).Float32s,
		func(x float32) uint64 { return uint64(math.Float32bits(x)) },
		func(b uint64) float32 { return math.Float32frombits(uint32(b)) }})
	testVecDifferential(t, vecCodec[int64]{"int64", 8,
		(*Encoder).PutInt64s, (*Decoder).Int64s,
		func(x int64) uint64 { return uint64(x) }, func(b uint64) int64 { return int64(b) }})
	testVecDifferential(t, vecCodec[int32]{"int32", 4,
		(*Encoder).PutInt32s, (*Decoder).Int32s,
		func(x int32) uint64 { return uint64(uint32(x)) }, func(b uint64) int32 { return int32(uint32(b)) }})
}

// TestReadFloat64sIntoLeavesDestination: from a byte slice, a vector
// that is not all there fails before the destination is written.
func TestReadFloat64sIntoLeavesDestination(t *testing.T) {
	var mem memSink
	NewEncoder(&mem).PutFloat64s([]float64{1, 2, 3, 4})
	for cut := 4; cut < len(mem.b); cut++ {
		dst := []float64{-1, -2, -3, -4}
		var d Decoder
		d.ResetBytes(mem.b[:cut])
		d.ReadFloat64sInto(dst)
		if d.Err() == nil {
			t.Fatalf("cut=%d: truncated vector decoded", cut)
		}
		if fmt.Sprint(dst) != "[-1 -2 -3 -4]" {
			t.Fatalf("cut=%d: destination written before the vector was known whole: %v", cut, dst)
		}
	}
}

// TestHostileCountAllocatesNothing: a count word promising 2^27
// elements over a payload that holds none costs an error, not a
// gigabyte — for every variable-length item a byte-slice source serves.
func TestHostileCountAllocatesNothing(t *testing.T) {
	hostile := []byte{0x08, 0, 0, 0}
	reads := map[string]func(*Decoder){
		"Float64s": func(d *Decoder) { d.Float64s() },
		"Float32s": func(d *Decoder) { d.Float32s() },
		"Int64s":   func(d *Decoder) { d.Int64s() },
		"Int32s":   func(d *Decoder) { d.Int32s() },
		"String":   func(d *Decoder) { _ = d.String() },
		"Opaque":   func(d *Decoder) { d.Opaque() },
	}
	for name, read := range reads {
		var d Decoder
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.ResetBytes(hostile)
		read(&d)
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Errorf("%s: hostile count decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d bytes allocated for a 4-byte payload", name, got)
		}
	}
}

// The vector kernel under Swab is held to swabGeneric, the portable
// loop it replaces for long spans — called by name, so no switch has to
// be flipped to reach the reference. On an architecture without a
// kernel the two are the same code and these tests pin only the loop.

// swabLengths straddle the kernel's thresholds: below its minimum span,
// one and four 32-byte blocks with and without a Go-loop tail, and the
// sizes the benchmark moves (each +8: an odd element after the blocks).
var swabLengths = []int{0, 8, 24, 32, 40, 120, 128, 136, 4096, 65536, 65544, 1<<20 + 8}

// swabSpecials lead every pattern: -0, NaNs quiet and signalling with
// payloads (a conversion through a float register would quiet them), in
// both widths, and a word with every byte distinct.
var swabSpecials = []uint64{
	0x8000000000000000, 0x7ff8000000000001, 0xfff4dead0000beef,
	0x7fc0000180000000, 0xffa0beef7fa00001, 0x0102030405060708,
}

func swabPattern(n int) []byte {
	p := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := uint64(i)*0x9e3779b97f4a7c15 + 0x0102030405060708
		if i/8 < len(swabSpecials) {
			v = swabSpecials[i/8]
		}
		binary.LittleEndian.PutUint64(p[i:], v)
	}
	return p
}

const (
	swabGuard  = 64   // canary bytes kept either side of a destination
	swabCanary = 0xa5 // no pattern run is this long
)

// aligned returns n bytes whose first is at a 32-byte boundary, so an
// offset into them is an offset from alignment.
func aligned(n int) []byte {
	b := make([]byte, n+32)
	off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) & 31)
	return b[off : off+n : off+n]
}

// A swabRig is the arenas one pattern is converted in at every offset.
type swabRig struct {
	pattern, want   []byte
	src, dst, again []byte
	canary          []byte
	size            int
}

// newSwabRig checks the reference against the definition — element i
// of the output read big-endian is element i of the input read
// little-endian, bit for bit — and keeps its output as the expectation.
func newSwabRig(t testing.TB, pattern []byte, size int) *swabRig {
	n := len(pattern)
	r := &swabRig{
		pattern: pattern, size: size,
		want:   make([]byte, n),
		src:    aligned(n + 32),
		dst:    aligned(n + 32 + 2*swabGuard),
		again:  make([]byte, n),
		canary: bytes.Repeat([]byte{swabCanary}, n+32+2*swabGuard),
	}
	swabGeneric(r.want, pattern, size)
	for i := 0; i+size <= n; i += size {
		if size == 8 && binary.BigEndian.Uint64(r.want[i:]) != binary.LittleEndian.Uint64(pattern[i:]) ||
			size == 4 && binary.BigEndian.Uint32(r.want[i:]) != binary.LittleEndian.Uint32(pattern[i:]) {
			t.Fatalf("size %d len %d: reference loop wrong at element %d", size, n, i/size)
		}
	}
	return r
}

// check converts the pattern from srcOff to dstOff past alignment.
func (r *swabRig) check(t testing.TB, srcOff, dstOff int) {
	n := len(r.pattern)
	src := r.src[srcOff : srcOff+n]
	copy(src, r.pattern)
	copy(r.dst, r.canary)
	lo := swabGuard + dstOff
	Swab(r.dst[lo:], src, r.size) // dst longer than src, as putVec's chunk is

	if !bytes.Equal(r.dst[lo:lo+n], r.want) {
		i := 0
		for r.dst[lo+i] == r.want[i] {
			i++
		}
		t.Fatalf("size %d len %d src+%d dst+%d: byte %d is %#02x, reference has %#02x",
			r.size, n, srcOff, dstOff, i, r.dst[lo+i], r.want[i])
	}
	if !bytes.Equal(r.dst[:lo], r.canary[:lo]) || !bytes.Equal(r.dst[lo+n:], r.canary[lo+n:]) {
		t.Fatalf("size %d len %d src+%d dst+%d: wrote outside dst[:len(src)]", r.size, n, srcOff, dstOff)
	}
	if !bytes.Equal(src, r.pattern) {
		t.Fatalf("size %d len %d src+%d dst+%d: source modified", r.size, n, srcOff, dstOff)
	}
	Swab(r.again, r.dst[lo:lo+n], r.size)
	if !bytes.Equal(r.again, r.pattern) {
		t.Fatalf("size %d len %d src+%d dst+%d: converting twice is not the identity", r.size, n, srcOff, dstOff)
	}
}

// TestSwabKernelVsReference: both element sizes, every length of
// swabLengths, source and destination each at byte offsets 0–31 from a
// 32-byte boundary — the full cross product up to 4 KiB; above it every
// offset of one side against 0 and 4 of the other (4 mod 8 is where the
// XDR count word leaves a decode source), which is what alignment can
// still change once the span is thousands of blocks long.
func TestSwabKernelVsReference(t *testing.T) {
	for _, size := range []int{4, 8} {
		for _, n := range swabLengths {
			r := newSwabRig(t, swabPattern(n), size)
			for s := 0; s < 32; s++ {
				for d := 0; d < 32; d++ {
					if n > 4096 && s != 0 && s != 4 && d != 0 && d != 4 {
						continue
					}
					r.check(t, s, d)
				}
			}
		}
	}
}
