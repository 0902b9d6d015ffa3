// Package protocol implements the Ninf RPC wire protocol: framed,
// XDR-encoded messages over a byte stream (TCP in deployment, in-memory
// pipes in tests, shaped connections under emulation).
//
// The protocol is the paper's §2.1/§2.3 design: a client first asks the
// server for the compiled IDL of a routine (stage one of the two-stage
// RPC), then interprets that description to marshal a call (stage two).
// No stubs, headers, or linking exist on the client side.
//
// In addition to the classic blocking call, the package carries the
// §5.1 two-phase transaction: arguments are submitted and the
// connection may be dropped; the client later fetches results under a
// job handle.
package protocol

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
	"sync"

	"ninf/internal/xdr"
)

// Frame constants.
const (
	// Magic identifies a Ninf RPC frame ("NINF").
	Magic = 0x4e494e46

	// Version is the protocol version spoken by this package.
	Version = 1

	// headerSize is the fixed frame header length in bytes:
	// magic, version, type, payload length — four uint32s.
	headerSize = 16

	// DefaultMaxPayload bounds the size of a single frame payload.
	// A 1600×1600 double matrix is ~20 MB; 1 GiB leaves ample room
	// while still rejecting corrupt lengths.
	DefaultMaxPayload = 1 << 30
)

// MsgType identifies the kind of a frame.
type MsgType uint32

// Frame types.
const (
	MsgError MsgType = iota + 1
	MsgPing
	MsgPong
	MsgList // request: none; reply: MsgListReply
	MsgListReply
	MsgInterface   // stage-one request: routine name
	MsgInterfaceOK // stage-one reply: compiled IDL
	MsgCall        // stage-two blocking call
	MsgCallOK      // blocking call reply with results
	MsgSubmit      // two-phase: ship arguments, get a job handle
	MsgSubmitOK
	MsgFetch // two-phase: poll/collect results by handle
	MsgFetchOK
	MsgStats // monitoring probe from the metaserver
	MsgStatsOK
	MsgTrace // execution-trace query (§5.1 predictor data)
	MsgTraceOK
)

// Level is the feature level a mux connection must have negotiated to
// carry a frame of type t: MuxVersionBulk for the bulk stream frames,
// MuxVersionCache for the argument-cache frames, and 0 — nothing beyond
// the connection itself — for every other type.
func (t MsgType) Level() int {
	switch t {
	case MsgBulkBegin, MsgBulkChunk, MsgBulkAbort:
		return MuxVersionBulk
	case MsgCallDigest, MsgDigestStatus, MsgDataHandle, MsgDataHandleOK:
		return MuxVersionCache
	}
	return 0
}

// String returns a symbolic name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgError:
		return "Error"
	case MsgPing:
		return "Ping"
	case MsgPong:
		return "Pong"
	case MsgList:
		return "List"
	case MsgListReply:
		return "ListReply"
	case MsgInterface:
		return "Interface"
	case MsgInterfaceOK:
		return "InterfaceOK"
	case MsgCall:
		return "Call"
	case MsgCallOK:
		return "CallOK"
	case MsgSubmit:
		return "Submit"
	case MsgSubmitOK:
		return "SubmitOK"
	case MsgFetch:
		return "Fetch"
	case MsgFetchOK:
		return "FetchOK"
	case MsgStats:
		return "Stats"
	case MsgStatsOK:
		return "StatsOK"
	case MsgTrace:
		return "Trace"
	case MsgTraceOK:
		return "TraceOK"
	case MsgSchedule:
		return "Schedule"
	case MsgScheduleOK:
		return "ScheduleOK"
	case MsgObserve:
		return "Observe"
	case MsgObserveOK:
		return "ObserveOK"
	case MsgGossip:
		return "Gossip"
	case MsgGossipOK:
		return "GossipOK"
	case MsgHello:
		return "Hello"
	case MsgHelloOK:
		return "HelloOK"
	case MsgBulkBegin:
		return "BulkBegin"
	case MsgBulkChunk:
		return "BulkChunk"
	case MsgBulkAbort:
		return "BulkAbort"
	case MsgCallDigest:
		return "CallDigest"
	case MsgDigestStatus:
		return "DigestStatus"
	case MsgDataHandle:
		return "DataHandle"
	case MsgDataHandleOK:
		return "DataHandleOK"
	default:
		return fmt.Sprintf("MsgType(%d)", uint32(t))
	}
}

// Framing errors.
var (
	ErrBadMagic   = errors.New("protocol: bad frame magic")
	ErrBadVersion = errors.New("protocol: unsupported protocol version")
	ErrOversized  = errors.New("protocol: frame exceeds payload limit")
)

// Buffer pooling. Frame buffers are recycled through size-classed
// sync.Pools so that steady-state calls assemble, write, and read
// frames without allocating. Capacities run in powers of two from
// 1 KiB to 64 MiB; buffers outside that range are not pooled.
const (
	minPoolBits = 10 // 1 KiB
	maxPoolBits = 26 // 64 MiB
)

var bufPools [maxPoolBits - minPoolBits + 1]sync.Pool

// Array pooling (see Arrays). The receiving side's decoded argument
// arrays recycle through the same size classes as the frame buffers.
// Arrays under minArrayBytes are cheaper to allocate than to track and
// are not pooled.
const minArrayBytes = 4 << 10

var arrayPools [len(bufPools)]sync.Pool

// poolClassFor returns the index of the smallest size class holding n
// bytes, or -1 when n exceeds the largest pooled capacity.
func poolClassFor(n int) int {
	if n <= 1<<minPoolBits {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c > maxPoolBits {
		return -1
	}
	return c - minPoolBits
}

// poolClassOf returns the index of the largest size class not
// exceeding capacity c, or -1 when c is below the smallest class.
func poolClassOf(c int) int {
	if c < 1<<minPoolBits {
		return -1
	}
	i := bits.Len(uint(c)) - 1 // floor(log2 c)
	if i > maxPoolBits {
		i = maxPoolBits
	}
	return i - minPoolBits
}

// A Buffer is a pooled frame-assembly buffer: headerSize bytes are
// reserved at the front for the frame header and the payload follows
// contiguously, so a finished frame goes to the wire with a single
// Write. Buffers come from AcquireBuffer and must be handed back with
// Release once the payload is no longer referenced; decoded values
// never alias the buffer, so releasing after decode is always safe.
type Buffer struct {
	b        []byte // b[:headerSize] header, b[headerSize:] payload
	enc      xdr.Encoder
	released bool
}

// AcquireBuffer returns a frame buffer with capacity for at least
// sizeHint payload bytes, drawing from the pool when possible. A hint
// of 0 is fine for small control messages; callers that know the
// payload size (the call encode/decode paths do) should pass it so the
// buffer lands in the right size class and is reused at steady state.
func AcquireBuffer(sizeHint int) *Buffer {
	need := headerSize + sizeHint
	ci := poolClassFor(need)
	if ci >= 0 {
		if v := bufPools[ci].Get(); v != nil {
			fb := v.(*Buffer)
			fb.b = fb.b[:headerSize]
			fb.released = false
			return fb
		}
	}
	size := need
	if ci >= 0 {
		size = 1 << (minPoolBits + ci)
	}
	return &Buffer{b: make([]byte, headerSize, size)}
}

// Release returns the buffer to its size-class pool. The buffer (and
// any slice of its payload) must not be used afterwards. Releasing nil
// or an already-released buffer is a no-op so single-owner cleanup
// paths stay simple; ownership still must not be shared.
func (fb *Buffer) Release() {
	if fb == nil || fb.released {
		return
	}
	fb.released = true
	ci := poolClassOf(cap(fb.b))
	if ci < 0 {
		return
	}
	bufPools[ci].Put(fb)
}

// CopyOut returns a caller-owned copy of fb's payload and releases fb:
// for the payloads that outlive their frame (a journal record, a stored
// two-phase reply). A nil buffer gives nil, so it composes with an
// encoder's (buffer, error) return.
func CopyOut(fb *Buffer) []byte {
	if fb == nil {
		return nil
	}
	p := append([]byte(nil), fb.Payload()...)
	fb.Release()
	return p
}

// Len reports the current payload length.
func (fb *Buffer) Len() int { return len(fb.b) - headerSize }

// Payload returns the payload bytes assembled (or read) so far. The
// slice aliases the buffer and dies with Release.
func (fb *Buffer) Payload() []byte { return fb.b[headerSize:] }

// Reset drops the payload, keeping capacity.
func (fb *Buffer) Reset() { fb.b = fb.b[:headerSize] }

// Write appends p to the payload, implementing io.Writer so XDR
// encoders can target the buffer directly.
func (fb *Buffer) Write(p []byte) (int, error) {
	fb.b = append(fb.b, p...)
	return len(p), nil
}

// Extend grows the payload by n bytes and returns them for the caller
// to fill. The XDR encoder converts array elements straight into the
// frame through it, so an array is passed over once on its way out.
func (fb *Buffer) Extend(n int) []byte {
	l := len(fb.b)
	fb.b = slices.Grow(fb.b, n)[:l+n]
	return fb.b[l:]
}

// Encoder returns the buffer's embedded XDR encoder, rearmed to append
// to the payload. The encoder is pooled with the buffer, so its bulk
// chunk storage is reused across frames.
func (fb *Buffer) Encoder() *xdr.Encoder {
	fb.enc.Reset(fb)
	return &fb.enc
}

// WriteFrameBuf stamps the frame header into the buffer's reserved
// prefix and writes header plus payload with a single Write call — one
// syscall on a TCP connection.
func WriteFrameBuf(w io.Writer, t MsgType, fb *Buffer) error {
	putU32(fb.b[0:], Magic)
	putU32(fb.b[4:], Version)
	putU32(fb.b[8:], uint32(t))
	putU32(fb.b[12:], uint32(fb.Len()))
	if _, err := w.Write(fb.b); err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// ReadFrameBuf reads one version-1 frame into a pooled buffer,
// enforcing the payload limit (0 means DefaultMaxPayload). The caller
// owns the buffer and must Release it once the payload has been
// decoded. EOF between frames is a clean close, passed through
// undecorated so callers can detect it.
func ReadFrameBuf(r io.Reader, maxPayload int) (MsgType, *Buffer, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("protocol: read header: %w", err)
	}
	if getU32(hdr[0:]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if v := getU32(hdr[4:]); v != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	t := MsgType(getU32(hdr[8:]))
	n := int(getU32(hdr[12:]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrOversized, n)
	}
	fb := AcquireBuffer(n)
	fb.b = fb.b[:headerSize+n]
	if _, err := io.ReadFull(r, fb.b[headerSize:]); err != nil {
		fb.Release()
		return 0, nil, fmt.Errorf("protocol: read payload: %w", err)
	}
	return t, fb, nil
}

// frameWriter is the pooled scratch for WriteFrame's vectored path.
type frameWriter struct {
	hdr [headerSize]byte
	vec net.Buffers
	arr [2][]byte
}

var frameWriterPool = sync.Pool{New: func() any { return new(frameWriter) }}

// WriteFrame writes one frame: header plus payload. Header and payload
// go out in a single vectored write (writev on TCP connections), so a
// frame never straddles two syscalls. Callers that assemble payloads
// in a Buffer should prefer WriteFrameBuf, which skips the gather.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	fw := frameWriterPool.Get().(*frameWriter)
	putU32(fw.hdr[0:], Magic)
	putU32(fw.hdr[4:], Version)
	putU32(fw.hdr[8:], uint32(t))
	putU32(fw.hdr[12:], uint32(len(payload)))
	var err error
	if len(payload) == 0 {
		_, err = w.Write(fw.hdr[:])
	} else {
		fw.vec = append(net.Buffers(fw.arr[:0]), fw.hdr[:], payload)
		_, err = fw.vec.WriteTo(w)
		fw.arr[0], fw.arr[1] = nil, nil // drop the payload reference
	}
	frameWriterPool.Put(fw)
	if err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// ReadFrame is ReadFrameBuf for callers that want the payload as a
// plain slice they own: the frame is read into a pooled buffer and
// copied out.
func ReadFrame(r io.Reader, maxPayload int) (MsgType, []byte, error) {
	t, fb, err := ReadFrameBuf(r, maxPayload)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, fb.Len())
	copy(payload, fb.Payload())
	fb.Release()
	return t, payload, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// An ErrorReply is the payload of MsgError: a code plus human-readable
// detail. RetryAfterMillis is an optional trailing back-pressure hint
// (nonzero only on overload rejections from hint-aware servers): how
// long the sender suggests waiting before retrying. Old peers never
// emit it and ignore it when present, in both v1 and v2 framing.
type ErrorReply struct {
	Code             uint32
	Detail           string
	RetryAfterMillis uint32
}

// Error codes carried in MsgError frames.
const (
	CodeUnknownRoutine uint32 = iota + 1
	CodeBadArguments
	CodeExecFailed
	CodeOverloaded
	CodeUnknownJob
	CodeNotReady
	CodeInternal
	// CodeCacheMiss rejects a digest-referencing call whose referenced
	// cache entry is gone (evicted between the client's warmth check and
	// the call, or never present). The call was NOT executed; the client
	// retries with the full bytes.
	CodeCacheMiss
)

// EncodeErrorReply serializes an error reply payload.
func EncodeErrorReply(code uint32, detail string) []byte {
	return EncodeErrorReplyHint(code, detail, 0)
}

// EncodeErrorReplyHint serializes an error reply payload with an
// optional retry-after back-pressure hint. A zero hint produces the
// wire shape old decoders expect; a nonzero hint is appended as a
// trailing word that pre-hint decoders skip.
func EncodeErrorReplyHint(code uint32, detail string, retryAfterMillis uint32) []byte {
	size := 4 + xdr.SizeString(len(detail))
	if retryAfterMillis > 0 {
		size += 4
	}
	return encodePayload(size, func(e *xdr.Encoder) {
		e.PutUint32(code)
		e.PutString(detail)
		if retryAfterMillis > 0 {
			e.PutUint32(retryAfterMillis)
		}
	})
}

// DecodeErrorReply parses an error reply payload. The retry-after hint
// is read only when the sender appended one; its absence (an old peer)
// leaves RetryAfterMillis zero.
func DecodeErrorReply(p []byte) (ErrorReply, error) {
	pd := acquireDecoder(p)
	er := ErrorReply{Code: pd.d.Uint32(), Detail: pd.d.String()}
	if pd.d.Err() == nil && len(p)-int(pd.d.Len()) >= 4 {
		er.RetryAfterMillis = pd.d.Uint32()
	}
	err := pd.d.Err()
	pd.release()
	return er, err
}

// RemoteError is the client-side representation of a MsgError frame.
// RetryAfterMillis, when nonzero, carries the server's back-pressure
// hint from an overload rejection.
type RemoteError struct {
	Code             uint32
	Detail           string
	RetryAfterMillis uint32
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("ninf: remote error %d: %s", e.Code, e.Detail)
}
