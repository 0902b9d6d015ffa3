package protocol

import (
	"sync/atomic"
	"unsafe"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// Raw vector views for the chunked bulk path. XDR ships arrays
// big-endian, which forces the encoder to copy every element through a
// byte-swapping loop — exactly the grow-and-copy cost the bulk frames
// exist to avoid. A bulk segment instead carries the caller's slice
// memory verbatim, in the sender's native byte order, with the order
// recorded in the MsgBulkBegin flags; the receiver memmoves when the
// orders match and swaps per element when they do not ("receiver makes
// it right"). Monolithic frames never use these views, so v1 peers and
// pre-bulk mux peers only ever see canonical XDR.

// hostLittle reports this machine's byte order, probed once.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f64Bytes views a []float64 as its raw native-order bytes. The view
// aliases v: the caller must not let it outlive v or mutate v while the
// view is referenced by an in-flight write.
func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// f32Bytes views a []float32 as its raw native-order bytes.
func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*4)
}

// i64Bytes views a []int64 as its raw native-order bytes.
func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// arrayLen reports the element count of v when it is an array value of
// the parameter's element type (the slice bulkSpanFor would view).
func arrayLen(p *idl.Param, v idl.Value) (int, bool) {
	switch x := v.(type) {
	case []float64:
		return len(x), p.Type == idl.Double
	case []float32:
		return len(x), p.Type == idl.Float
	case []int64:
		return len(x), p.Type == idl.Int
	}
	return -1, false
}

// fillRaw copies an array's element bytes src, elem bytes each and in
// byte order le, into dst, the host-order memory they are wanted in.
// Matching orders cost one memmove, a foreign order one swapping pass.
// XDR's inline arrays are the big-endian case of the same thing.
func fillRaw(dst, src []byte, le bool, elem int) {
	if le == hostLittle {
		copy(dst, src)
	} else {
		xdr.Swab(dst, src, elem)
	}
}

// An arrayBlock is the pooled memory behind one recycled array: whole
// 8-byte words, so it is aligned for every element type, and always a
// full size class long.
type arrayBlock struct{ words []uint64 }

// arrayReleaseHook, when set, is shown each array's memory as Release
// recycles it.
var arrayReleaseHook atomic.Pointer[func(mem []uint64)]

// SetArrayReleaseHook installs fn to be shown the memory of every array
// Arrays.Release recycles (nil removes it). It exists for the ownership
// tests, which poison the memory so a reader that outlived the release
// fails loudly, and count the releases; nothing else may set it.
func SetArrayReleaseHook(fn func(mem []uint64)) {
	if fn == nil {
		arrayReleaseHook.Store(nil)
		return
	}
	arrayReleaseHook.Store(&fn)
}

// Arrays is the set of pooled arrays one decoded call owns: the
// receiving side's in-arrays and zeroed out-arrays at or above
// minArrayBytes are cut from size-classed pooled blocks instead of
// being allocated per call, and recorded here. Whoever holds the
// *Arrays owns them all and hands them back with one Release, once
// nothing reads the decoded values any more — not the handler, not a
// reply still being encoded or streamed from them. Only what decode
// handed out is recorded, so a value the handler put in its place is
// never recycled. An owner that lets something else keep aliasing an
// array (the argument cache) drops the *Arrays unreleased instead and
// leaves the memory to the collector. Not safe for concurrent use.
type Arrays struct{ blocks []*arrayBlock }

// NewArrays returns an empty set for one call's decode to fill.
func NewArrays() *Arrays { return new(Arrays) }

// Release returns every recorded array to the pool. The decoded values
// must not be used afterwards. Releasing nil or twice is a no-op.
func (a *Arrays) Release() {
	if a == nil {
		return
	}
	hook := arrayReleaseHook.Load()
	for _, blk := range a.blocks {
		if hook != nil {
			(*hook)(blk.words)
		}
		arrayPools[poolClassFor(len(blk.words)*8)].Put(blk)
	}
	a.blocks = nil
}

// makeArray returns the count-element array value of an array
// parameter of type t: pooled and recorded when a is non-nil and the
// array is worth recycling, freshly allocated (and the caller's to
// keep) otherwise. zero asks for cleared elements; a caller about to
// overwrite them all saves the pass.
func (a *Arrays) makeArray(t idl.Type, count int, zero bool) idl.Value {
	if t != idl.Int && t != idl.Double && t != idl.Float {
		return nil
	}
	n := count * bulkElemSize(t)
	ci := poolClassFor(n)
	if a == nil || n < minArrayBytes || ci < 0 {
		switch t {
		case idl.Int:
			return make([]int64, count)
		case idl.Double:
			return make([]float64, count)
		default:
			return make([]float32, count)
		}
	}
	blk, _ := arrayPools[ci].Get().(*arrayBlock)
	if blk == nil {
		blk = &arrayBlock{words: make([]uint64, 1<<(minPoolBits+ci-3))}
	} else if zero {
		clear(blk.words[:(n+7)/8])
	}
	a.blocks = append(a.blocks, blk)
	base := unsafe.Pointer(unsafe.SliceData(blk.words))
	switch t {
	case idl.Int:
		return unsafe.Slice((*int64)(base), count)
	case idl.Double:
		return unsafe.Slice((*float64)(base), count)
	default:
		return unsafe.Slice((*float32)(base), count)
	}
}
