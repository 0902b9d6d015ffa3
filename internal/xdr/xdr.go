// Package xdr implements the subset of Sun XDR (RFC 1014) external data
// representation used by the Ninf RPC protocol.
//
// XDR is a big-endian format in which every item occupies a multiple of
// four bytes. Ninf ships scalar arguments and dense numerical arrays in
// XDR, so in addition to the scalar codecs this package provides bulk
// fast paths for []float64, []float32, []int32 and []int64. A vector
// crosses the codec once: when the encoder's sink is memory it can
// extend (a frame buffer) the elements are converted straight into it,
// and when the decoder's source is a byte slice (ResetBytes) they are
// converted straight out of it. An io.Writer or io.Reader that is
// neither is served through a chunk buffer, one Write or Read per chunk
// rather than one per element. Both paths run the same conversion
// (Swab), so they cannot disagree on a byte.
//
// The zero value of Encoder and Decoder is not usable; construct them
// with NewEncoder and NewDecoder, or arm a zero value with Reset.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Wire size constants.
const (
	// unitSize is the XDR basic block size: every encoded item is
	// padded to a multiple of unitSize bytes.
	unitSize = 4

	// DefaultMaxBytes bounds variable-length items (strings, opaque
	// data, arrays) accepted by a Decoder, protecting servers from a
	// corrupt or hostile length prefix. Callers handling large
	// matrices may raise the limit with Decoder.SetMaxBytes.
	DefaultMaxBytes = 1 << 30
)

// Errors returned by the decoder. They are wrapped with contextual detail;
// use errors.Is to test for them.
var (
	// ErrTooLong indicates a variable-length item whose declared
	// length exceeds the decoder's limit.
	ErrTooLong = errors.New("xdr: variable-length item exceeds limit")

	// ErrBadBool indicates a boolean encoded as something other than
	// the canonical 0 or 1.
	ErrBadBool = errors.New("xdr: invalid boolean")

	// ErrNegativeLen indicates a negative length prefix.
	ErrNegativeLen = errors.New("xdr: negative length")
)

var zeroPad [unitSize]byte

// pad returns the number of padding bytes needed to bring n up to a
// multiple of the XDR unit size.
func pad(n int) int { return (unitSize - n%unitSize) % unitSize }

// An Encoder writes XDR-encoded values to an underlying writer.
// Encoders maintain a small scratch buffer and an error latch: after the
// first write error every subsequent method is a no-op returning the
// same error, so call sites may encode a whole message and check the
// error once via Flush or Err.
type Encoder struct {
	w       io.Writer
	mem     extender // w again, when it is memory vectors can convert into
	scratch [8]byte
	bulk    []byte // chunk buffer for vector fast paths, lazily allocated
	n       int64  // total bytes written
	err     error
}

// An extender is a sink that is memory: Extend grows it by n bytes and
// returns them for the caller to fill. Vector puts convert elements
// straight into those bytes instead of staging them through a chunk.
type extender interface {
	Extend(n int) []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	e := new(Encoder)
	e.Reset(w)
	return e
}

// Reset rearms the encoder to write to w, clearing the byte count and
// the error latch while keeping the bulk chunk buffer. It lets pooled
// encoders be reused without reallocating their scratch state.
func (e *Encoder) Reset(w io.Writer) {
	e.w = w
	e.mem, _ = w.(extender)
	e.n = 0
	e.err = nil
}

// Err reports the first error encountered by the encoder.
func (e *Encoder) Err() error { return e.err }

// Len reports the total number of bytes successfully handed to the
// underlying writer.
func (e *Encoder) Len() int64 { return e.n }

func (e *Encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(p)
	e.n += int64(n)
	if err != nil {
		e.err = fmt.Errorf("xdr: write: %w", err)
	}
}

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	binary.BigEndian.PutUint32(e.scratch[:4], v)
	e.write(e.scratch[:4])
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutInt encodes an int as an XDR hyper (64-bit) so that array sizes
// round-trip exactly on 64-bit hosts.
func (e *Encoder) PutInt(v int) { e.PutInt64(int64(v)) }

// PutUint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) PutUint64(v uint64) {
	binary.BigEndian.PutUint64(e.scratch[:8], v)
	e.write(e.scratch[:8])
}

// PutInt64 encodes a 64-bit signed integer (XDR hyper).
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as the canonical 0 or 1.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutString encodes a counted string with trailing padding.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.write([]byte(s))
	if p := pad(len(s)); p > 0 {
		e.write(zeroPad[:p])
	}
}

// PutOpaque encodes variable-length opaque data (counted bytes plus
// padding).
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutFixedOpaque encodes fixed-length opaque data: the bytes plus
// padding, with no length prefix.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.write(b)
	if p := pad(len(b)); p > 0 {
		e.write(zeroPad[:p])
	}
}

// chunkSize is the staging buffer of the stream paths: a multiple of
// every element size.
const chunkSize = 8192

// hostLittle reports this machine's byte order.
var hostLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawBytes views a vector's memory as bytes, in host order.
func rawBytes[T float64 | float32 | int64 | int32](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(v[0])))
}

// Swab copies src to dst reversing the bytes of every size-byte element
// (size 4 or 8; len(src) a multiple of it; len(dst) ≥ len(src)). It is
// the one element-conversion loop of the codec: encode and decode, the
// memory and the stream path, and the protocol layer's foreign-order
// bulk segments all run it. dst and src must not partially overlap: the
// vector kernel loads a block of elements before it stores any.
//
// Where the CPU has a vector byte shuffle (swabVector, per GOARCH) the
// body of a long enough span goes through it; swabGeneric converts the
// rest — all of it on every other machine.
func Swab(dst, src []byte, size int) {
	dst = dst[:len(src)]
	n := swabVector(dst, src, size)
	swabGeneric(dst[n:], src[n:], size)
}

// swabGeneric is Swab in portable Go: the tail handler behind the
// vector kernel, the whole conversion where there is none, and the
// reference the tests hold the kernel to. len(dst) == len(src).
func swabGeneric(dst, src []byte, size int) {
	if size == 4 {
		for len(src) >= 16 && len(dst) >= 16 {
			binary.BigEndian.PutUint32(dst[0:4], binary.LittleEndian.Uint32(src[0:4]))
			binary.BigEndian.PutUint32(dst[4:8], binary.LittleEndian.Uint32(src[4:8]))
			binary.BigEndian.PutUint32(dst[8:12], binary.LittleEndian.Uint32(src[8:12]))
			binary.BigEndian.PutUint32(dst[12:16], binary.LittleEndian.Uint32(src[12:16]))
			src, dst = src[16:], dst[16:]
		}
		for len(src) >= 4 && len(dst) >= 4 {
			binary.BigEndian.PutUint32(dst[0:4], binary.LittleEndian.Uint32(src[0:4]))
			src, dst = src[4:], dst[4:]
		}
		return
	}
	for len(src) >= 32 && len(dst) >= 32 {
		binary.BigEndian.PutUint64(dst[0:8], binary.LittleEndian.Uint64(src[0:8]))
		binary.BigEndian.PutUint64(dst[8:16], binary.LittleEndian.Uint64(src[8:16]))
		binary.BigEndian.PutUint64(dst[16:24], binary.LittleEndian.Uint64(src[16:24]))
		binary.BigEndian.PutUint64(dst[24:32], binary.LittleEndian.Uint64(src[24:32]))
		src, dst = src[32:], dst[32:]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		binary.BigEndian.PutUint64(dst[0:8], binary.LittleEndian.Uint64(src[0:8]))
		src, dst = src[8:], dst[8:]
	}
}

// convert copies size-byte elements between host order and XDR's
// big-endian order; the conversion is its own inverse.
func convert(dst, src []byte, size int) {
	if hostLittle {
		Swab(dst, src, size)
	} else {
		copy(dst, src)
	}
}

// putVec encodes a counted vector whose host-order memory is raw.
func (e *Encoder) putVec(count int, raw []byte, size int) {
	e.PutUint32(uint32(count))
	if e.err != nil {
		return
	}
	if e.mem != nil {
		convert(e.mem.Extend(len(raw)), raw, size)
		e.n += int64(len(raw))
		return
	}
	if e.bulk == nil {
		e.bulk = make([]byte, chunkSize)
	}
	for len(raw) > 0 && e.err == nil {
		n := min(len(raw), chunkSize)
		convert(e.bulk, raw[:n], size)
		e.write(e.bulk[:n])
		raw = raw[n:]
	}
}

// PutFloat64s encodes a counted vector of doubles.
func (e *Encoder) PutFloat64s(v []float64) { e.putVec(len(v), rawBytes(v), 8) }

// PutFloat32s encodes a counted vector of single-precision floats.
func (e *Encoder) PutFloat32s(v []float32) { e.putVec(len(v), rawBytes(v), 4) }

// PutInt32s encodes a counted vector of 32-bit integers.
func (e *Encoder) PutInt32s(v []int32) { e.putVec(len(v), rawBytes(v), 4) }

// PutInt64s encodes a counted vector of 64-bit integers.
func (e *Encoder) PutInt64s(v []int64) { e.putVec(len(v), rawBytes(v), 8) }

// A Decoder reads XDR-encoded values from an underlying reader, or from
// a byte slice it was armed with by ResetBytes. Like Encoder it latches
// the first error; after an error all reads return zero values and Err
// reports the cause. A byte-slice source knows how much is left, so
// every variable-length item is checked against the bytes present
// before anything is allocated for it: a hostile count word costs an
// error, not memory. Truncation reads the same from either source — the
// remaining bytes are consumed and the error wraps io.EOF (nothing was
// left) or io.ErrUnexpectedEOF.
type Decoder struct {
	r        io.Reader
	buf      []byte // unread rest of a ResetBytes source; r is nil then
	scratch  [8]byte
	bulk     []byte
	maxBytes int
	n        int64
	err      error
}

// NewDecoder returns a Decoder reading from r with the default
// variable-length limit.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, maxBytes: DefaultMaxBytes}
}

// Reset rearms the decoder to read from r, clearing the byte count and
// the error latch while keeping the bulk chunk buffer. A zero-value or
// pooled decoder gains the default variable-length limit; a limit set
// with SetMaxBytes is preserved.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.buf = nil
	d.n = 0
	d.err = nil
	if d.maxBytes <= 0 {
		d.maxBytes = DefaultMaxBytes
	}
}

// ResetBytes is Reset for a payload already in memory: the decoder
// reads p in place (it never writes to it) and vectors are converted
// straight out of it.
func (d *Decoder) ResetBytes(p []byte) {
	d.Reset(nil)
	d.buf = p
}

// SetMaxBytes adjusts the limit on variable-length items. Limits that
// are not positive are ignored.
func (d *Decoder) SetMaxBytes(n int) {
	if n > 0 {
		d.maxBytes = n
	}
}

// Err reports the first error encountered by the decoder.
func (d *Decoder) Err() error { return d.err }

// Len reports the total number of bytes consumed.
func (d *Decoder) Len() int64 { return d.n }

// avail reports whether the next n bytes can be read. A byte-slice
// source that holds fewer fails here the way a short io.ReadFull would;
// a stream cannot tell before it reads, so it answers true.
func (d *Decoder) avail(n int) bool {
	if d.err != nil {
		return false
	}
	if d.r != nil || n <= len(d.buf) {
		return true
	}
	err := io.ErrUnexpectedEOF
	if len(d.buf) == 0 {
		err = io.EOF
	}
	d.n += int64(len(d.buf))
	d.buf = nil
	d.err = fmt.Errorf("xdr: read: %w", err)
	return false
}

// View returns the next n bytes of a byte-slice source without copying
// them: the result aliases the payload given to ResetBytes. It is how
// the protocol layer finds an array's elements before it knows where
// they are going. nil after an error, and on a stream source, which has
// nothing to alias.
func (d *Decoder) View(n int) []byte {
	if d.r != nil && d.err == nil {
		d.err = errors.New("xdr: View of a stream source")
	}
	if !d.avail(n) {
		return nil
	}
	p := d.buf[:n:n]
	d.buf = d.buf[n:]
	d.n += int64(n)
	return p
}

func (d *Decoder) read(p []byte) bool {
	if d.r == nil {
		src := d.View(len(p))
		copy(p, src)
		return d.err == nil
	}
	if d.err != nil {
		return false
	}
	n, err := io.ReadFull(d.r, p)
	d.n += int64(n)
	if err != nil {
		d.err = fmt.Errorf("xdr: read: %w", err)
		return false
	}
	return true
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if !d.read(d.scratch[:4]) {
		return 0
	}
	return binary.BigEndian.Uint32(d.scratch[:4])
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if !d.read(d.scratch[:8]) {
		return 0
	}
	return binary.BigEndian.Uint64(d.scratch[:8])
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int decodes an int encoded with Encoder.PutInt.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool decodes a canonical XDR boolean.
func (d *Decoder) Bool() bool {
	switch d.Uint32() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = ErrBadBool
		}
		return false
	}
}

// Float32 decodes a single-precision float.
func (d *Decoder) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Float64 decodes a double-precision float.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// length decodes and validates a length prefix for an item whose
// elements are elemSize bytes each.
func (d *Decoder) length(elemSize int) int {
	v := d.Int32()
	if d.err != nil {
		return 0
	}
	if v < 0 {
		d.err = fmt.Errorf("%w: %d", ErrNegativeLen, v)
		return 0
	}
	n := int(v)
	if n > d.maxBytes/elemSize {
		d.err = fmt.Errorf("%w: %d elements of %d bytes (limit %d bytes)", ErrTooLong, n, elemSize, d.maxBytes)
		return 0
	}
	return n
}

// String decodes a counted string.
func (d *Decoder) String() string {
	n := d.length(1)
	if !d.avail(n + pad(n)) {
		return ""
	}
	b := make([]byte, n+pad(n))
	if !d.read(b) {
		return ""
	}
	return string(b[:n])
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() []byte {
	return d.opaque(d.length(1))
}

// FixedOpaque decodes n opaque bytes plus padding.
func (d *Decoder) FixedOpaque(n int) []byte {
	if d.err == nil && n < 0 {
		d.err = fmt.Errorf("%w: %d", ErrNegativeLen, n)
	}
	return d.opaque(n)
}

func (d *Decoder) opaque(n int) []byte {
	if !d.avail(n + pad(n)) {
		return nil
	}
	b := make([]byte, n+pad(n))
	if !d.read(b) {
		return nil
	}
	return b[:n:n]
}

// getVec decodes len(raw)/size elements, with no length prefix, into
// raw, the host-order memory of their destination. A byte-slice source
// too short for them fails before raw is written.
func (d *Decoder) getVec(raw []byte, size int) {
	if d.r == nil {
		if src := d.View(len(raw)); src != nil {
			convert(raw, src, size)
		}
		return
	}
	if d.bulk == nil {
		d.bulk = make([]byte, chunkSize)
	}
	for len(raw) > 0 {
		n := min(len(raw), chunkSize)
		if !d.read(d.bulk[:n]) {
			return
		}
		convert(raw, d.bulk[:n], size)
		raw = raw[n:]
	}
}

// vec decodes a counted vector into a new slice; nil after an error.
func vec[T float64 | float32 | int64 | int32](d *Decoder) []T {
	size := int(unsafe.Sizeof(T(0)))
	n := d.length(size)
	if !d.avail(n * size) {
		return nil
	}
	out := make([]T, n)
	d.getVec(rawBytes(out), size)
	return out
}

// Float64s decodes a counted vector of doubles.
func (d *Decoder) Float64s() []float64 { return vec[float64](d) }

// Float32s decodes a counted vector of single-precision floats.
func (d *Decoder) Float32s() []float32 { return vec[float32](d) }

// Int32s decodes a counted vector of 32-bit integers.
func (d *Decoder) Int32s() []int32 { return vec[int32](d) }

// Int64s decodes a counted vector of 64-bit integers.
func (d *Decoder) Int64s() []int64 { return vec[int64](d) }

// ReadFloat64sInto decodes a counted vector of doubles into dst, which
// must have exactly the encoded length. It avoids an allocation when
// the caller owns the destination (mode_out arguments).
func (d *Decoder) ReadFloat64sInto(dst []float64) {
	n := d.length(8)
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.err = fmt.Errorf("xdr: vector length %d does not match destination %d", n, len(dst))
		return
	}
	d.getVec(rawBytes(dst), 8)
}

// SizeString reports the encoded size in bytes of a string of length n,
// including the length prefix and padding. Used by the performance
// model and by the protocol layer to pre-compute frame lengths.
func SizeString(n int) int { return 4 + n + pad(n) }

// SizeOpaque reports the encoded size of n opaque bytes (counted form).
func SizeOpaque(n int) int { return 4 + n + pad(n) }

// SizeFloat64s reports the encoded size of an n-element double vector.
func SizeFloat64s(n int) int { return 4 + 8*n }
