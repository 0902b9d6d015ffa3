package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// Content-addressed argument references (the argument cache). A repeated
// WAN workload re-ships the same matrices on every Ninf_call, so on the
// paper's 0.17 MB/s Ocha-U↔ETL link throughput is the link, not the
// server. The cache lets a call name a large argument by the digest of
// its element bytes instead of carrying the bytes: the server resolves
// the digest from its byte-budgeted argument cache, and only cache
// misses stream over the chunked bulk machinery. The digest is defined
// over the array's little-endian element bytes (the dominant host order,
// hashed zero-copy via the rawvec views) with the length folded in, so
// the same values always produce the same digest on both ends regardless
// of which host hashed them.
//
// None of these frames or markers appear on the wire unless the server
// granted its cache in its HelloReply flags (HelloFlagArgCache); without
// the grant a mux conversation carries none of them.

// Cache frame types (v2 framing, cache-granted connections only).
const (
	// MsgCallDigest asks which of a list of digests are warm in the
	// server's argument cache; reply is MsgDigestStatus.
	MsgCallDigest MsgType = iota + 140
	// MsgDigestStatus answers MsgCallDigest with per-digest warmth.
	MsgDigestStatus
	// MsgDataHandle fetches a cached value by digest — the persistent
	// remote data handle; reply is MsgDataHandleOK (or MsgError with
	// CodeCacheMiss).
	MsgDataHandle
	// MsgDataHandleOK carries the digest echo and the entry's
	// little-endian element bytes.
	MsgDataHandleOK
)

// A Digest is the 128-bit content hash of an array argument's
// little-endian element bytes. It is a fast non-cryptographic hash:
// collision resistance against adversaries is not a goal (the cache
// verifies full digests on its short-key buckets, and the server
// recomputes digests on insert rather than trusting the sender).
type Digest struct {
	Hi, Lo uint64
}

// IsZero reports the zero digest, which never names a cache entry.
func (d Digest) IsZero() bool { return d.Hi == 0 && d.Lo == 0 }

func (d Digest) String() string { return fmt.Sprintf("%016x%016x", d.Hi, d.Lo) }

// ErrDigestMiss reports a digest reference whose cache entry is absent;
// the server maps it to CodeCacheMiss without executing the call.
var ErrDigestMiss = errors.New("protocol: digest not in cache")

// A DigestResolver supplies the bytes behind digest markers and retains
// uploaded segments. Implemented by the server's per-call cache view;
// nil on every pre-cache decode path.
type DigestResolver interface {
	// ResolveDigest returns the cached little-endian element bytes for
	// d, or false on a miss. A successful resolve pins the entry until
	// the call completes, so eviction cannot yank an operand mid-call.
	ResolveDigest(d Digest) ([]byte, bool)
	// RetainSegment offers a received bulk segment (in sender byte
	// order le, elem bytes per element) for caching. Implementations
	// copy; seg aliases the reassembly buffer.
	RetainSegment(seg []byte, le bool, elem int)
}

// digestMix is the splitmix64 finalizer, the mixing core of the hash.
func digestMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	digestK1 = 0x9e3779b97f4a7c15 // golden-ratio seed for the mixed lane
	digestK2 = 0xc2b2ae3d27d4eb4f // seed for the multiplicative lane
	digestK3 = 0x165667b19e3779f9 // per-word multiplier
)

// DigestBytesLE hashes element bytes already in little-endian order:
// one mixed lane and one multiplicative lane per 8-byte word, length
// folded into both seeds, a zero-padded tail, and a cross-mix
// finalizer. Word-at-a-time keeps it in the GB/s range without copies.
func DigestBytesLE(b []byte) Digest {
	h1 := uint64(digestK1) ^ uint64(len(b))
	h2 := uint64(digestK2) + uint64(len(b))*digestK3
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		h1 = digestMix(h1 ^ w)
		h2 = h2*digestK3 + w
	}
	if i < len(b) {
		var tail [8]byte
		copy(tail[:], b[i:])
		w := binary.LittleEndian.Uint64(tail[:])
		h1 = digestMix(h1 ^ w)
		h2 = h2*digestK3 + w
	}
	h2 = digestMix(h2 ^ h1)
	h1 = digestMix(h1 + h2)
	return Digest{Hi: h1, Lo: h2}
}

// leBytes returns an array's elements as little-endian bytes given raw,
// its host-order memory: raw itself on a little-endian host, a swapped
// copy otherwise.
func leBytes(raw []byte, elem int) []byte {
	if hostLittle {
		return raw
	}
	buf := make([]byte, len(raw))
	xdr.Swab(buf, raw, elem)
	return buf
}

// DigestFloat64s hashes a []float64's little-endian element bytes,
// zero-copy on little-endian hosts.
func DigestFloat64s(v []float64) Digest { return DigestBytesLE(leBytes(f64Bytes(v), 8)) }

// DigestValue hashes a bulk-capable array value; false for anything
// that cannot ride as a bulk segment.
func DigestValue(v idl.Value) (Digest, bool) {
	b, ok := ValueLEBytes(v)
	if !ok {
		return Digest{}, false
	}
	return DigestBytesLE(b), true
}

// ValueLEBytes returns a bulk-capable array value's elements as
// little-endian bytes, zero-copy on little-endian hosts (the result
// then aliases v's backing array — callers must not mutate v while the
// bytes are retained). false for anything that cannot ride as a bulk
// segment.
func ValueLEBytes(v idl.Value) ([]byte, bool) {
	switch x := v.(type) {
	case []float64:
		return leBytes(f64Bytes(x), 8), true
	case []float32:
		return leBytes(f32Bytes(x), 4), true
	case []int64:
		return leBytes(i64Bytes(x), 8), true
	default:
		return nil, false
	}
}

// NormalizeSegmentLE returns seg's bytes in little-endian element
// order, copying into a fresh slice (seg usually aliases a transient
// reassembly buffer). elem is the element width in bytes.
func NormalizeSegmentLE(seg []byte, le bool, elem int) []byte {
	out := make([]byte, len(seg))
	if le {
		copy(out, seg)
	} else {
		xdr.Swab(out, seg, elem)
	}
	return out
}

// CallRequestDigests computes the digests of the call's bulk-eligible
// arguments (encoded size ≥ threshold) in parameter order — the order
// the encoder consumes them in, so the returned list goes into
// NewShape without hashing twice. Empty when nothing is
// bulk-eligible.
func CallRequestDigests(info *idl.Info, req *CallRequest, threshold int) ([]Digest, error) {
	if threshold <= 0 {
		return nil, nil
	}
	if len(req.Args) != len(info.Params) {
		return nil, fmt.Errorf("protocol: %s takes %d arguments, got %d", info.Name, len(info.Params), len(req.Args))
	}
	var digs []Digest
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(false) {
			continue
		}
		if s := bulkSpanFor(p, req.Args[i]); len(s) >= threshold {
			d, ok := DigestValue(req.Args[i])
			if !ok {
				return nil, fmt.Errorf("protocol: %s argument %q: not digestible", info.Name, p.Name)
			}
			digs = append(digs, d)
		}
	}
	return digs, nil
}

// EncodeCallRequestDigest is EncodeRequest with segments at threshold
// and digest markers for digs, warm applied to each of them (pinned by
// benchmark/layers.go, like the fronts in messages.go; warmFlags goes
// with it).
func EncodeCallRequestDigest(info *idl.Info, req *CallRequest, keyed bool, key uint64, threshold int, digs []Digest, warm func(Digest) bool) (*BulkMsg, *Buffer, error) {
	t := MsgCall
	if keyed {
		t = MsgSubmit
	}
	return EncodeRequest(info, t, req, key, Shape{threshold: threshold, digest: true, digs: digs, warm: warmFlags(digs, warm)})
}

func warmFlags(digs []Digest, warm func(Digest) bool) []bool {
	flags := make([]bool, len(digs))
	for i, d := range digs {
		flags[i] = warm != nil && warm(d)
	}
	return flags
}

// DecodeLEInto decodes little-endian element bytes (a data-handle
// reply) into dst: *[]float64, *[]float32 or *[]int64.
func DecodeLEInto(b []byte, dst any) error {
	switch p := dst.(type) {
	case *[]float64:
		if len(b)%8 != 0 {
			return fmt.Errorf("protocol: %d cached bytes are not a float64 array", len(b))
		}
		*p = make([]float64, len(b)/8)
		fillRaw(f64Bytes(*p), b, true, 8)
	case *[]float32:
		if len(b)%4 != 0 {
			return fmt.Errorf("protocol: %d cached bytes are not a float32 array", len(b))
		}
		*p = make([]float32, len(b)/4)
		fillRaw(f32Bytes(*p), b, true, 4)
	case *[]int64:
		if len(b)%8 != 0 {
			return fmt.Errorf("protocol: %d cached bytes are not an int64 array", len(b))
		}
		*p = make([]int64, len(b)/8)
		fillRaw(i64Bytes(*p), b, true, 8)
	default:
		return fmt.Errorf("protocol: unsupported data-handle destination %T", dst)
	}
	return nil
}

// EncodeDigestQueryBuf serializes a MsgCallDigest payload: the digests
// whose warmth the client wants to know.
func EncodeDigestQueryBuf(digs []Digest) *Buffer {
	fb := AcquireBuffer(4 + 16*len(digs))
	e := fb.Encoder()
	e.PutUint32(uint32(len(digs)))
	for _, d := range digs {
		e.PutUint64(d.Hi)
		e.PutUint64(d.Lo)
	}
	return fb
}

// DecodeDigestQuery parses a MsgCallDigest payload.
func DecodeDigestQuery(p []byte) ([]Digest, error) {
	return decodePayload(p, func(d *xdr.Decoder) ([]Digest, error) {
		n := int(d.Uint32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if n > len(p)/16 {
			return nil, fmt.Errorf("protocol: digest query count %d exceeds payload", n)
		}
		digs := make([]Digest, n)
		for i := range digs {
			digs[i] = Digest{Hi: d.Uint64(), Lo: d.Uint64()}
		}
		return digs, nil
	})
}

// EncodeDigestStatusBuf serializes a MsgDigestStatus payload: one
// warmth word per queried digest, in query order.
func EncodeDigestStatusBuf(warm []bool) *Buffer {
	fb := AcquireBuffer(4 + 4*len(warm))
	e := fb.Encoder()
	e.PutUint32(uint32(len(warm)))
	for _, w := range warm {
		e.PutBool(w)
	}
	return fb
}

// DecodeDigestStatus parses a MsgDigestStatus payload.
func DecodeDigestStatus(p []byte) ([]bool, error) {
	return decodePayload(p, func(d *xdr.Decoder) ([]bool, error) {
		n := int(d.Uint32())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if n > len(p)/4 {
			return nil, fmt.Errorf("protocol: digest status count %d exceeds payload", n)
		}
		warm := make([]bool, n)
		for i := range warm {
			warm[i] = d.Bool()
		}
		return warm, nil
	})
}

// EncodeDataHandleRequestBuf serializes a MsgDataHandle payload.
func EncodeDataHandleRequestBuf(d Digest) *Buffer {
	fb := AcquireBuffer(16)
	e := fb.Encoder()
	e.PutUint64(d.Hi)
	e.PutUint64(d.Lo)
	return fb
}

// DecodeDataHandleRequest parses a MsgDataHandle payload.
func DecodeDataHandleRequest(p []byte) (Digest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (Digest, error) {
		return Digest{Hi: d.Uint64(), Lo: d.Uint64()}, nil
	})
}

// EncodeDataHandleReplyBuf serializes a MsgDataHandleOK payload: the
// digest echo followed by the entry's little-endian element bytes.
func EncodeDataHandleReplyBuf(d Digest, b []byte) *Buffer {
	fb := AcquireBuffer(16 + 4 + len(b))
	e := fb.Encoder()
	e.PutUint64(d.Hi)
	e.PutUint64(d.Lo)
	e.PutOpaque(b)
	return fb
}

// DecodeDataHandleReply parses a MsgDataHandleOK payload. The returned
// bytes alias p; callers copy if they outlive the frame buffer.
func DecodeDataHandleReply(p []byte) (Digest, []byte, error) {
	type reply struct {
		dig Digest
		b   []byte
	}
	r, err := decodePayload(p, func(d *xdr.Decoder) (reply, error) {
		return reply{Digest{Hi: d.Uint64(), Lo: d.Uint64()}, d.Opaque()}, nil
	})
	return r.dig, r.b, err
}
