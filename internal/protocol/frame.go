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
	"slices"
	"sync"
	"sync/atomic"

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

// Cache reports whether t is an argument-cache frame, legal only on a
// mux connection whose server granted its cache (HelloFlagArgCache).
// Every other type, the bulk stream frames included, is legal on any
// mux connection.
func (t MsgType) Cache() bool {
	switch t {
	case MsgCallDigest, MsgDigestStatus, MsgDataHandle, MsgDataHandleOK:
		return true
	}
	return false
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
	ErrWrite      = errors.New("protocol: write frame")
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
	liveBuffers.Add(1)
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

// liveBuffers counts buffers acquired and not yet released.
var liveBuffers atomic.Int64

// LiveBuffers returns the number of buffers acquired and not yet
// released: zero once every owner has handed its buffer back.
func LiveBuffers() int64 { return liveBuffers.Load() }

// Release returns the buffer to its size-class pool. The buffer (and
// any slice of its payload) must not be used afterwards. Releasing nil
// or an already-released buffer is a no-op so single-owner cleanup
// paths stay simple; ownership still must not be shared.
func (fb *Buffer) Release() {
	if fb == nil || fb.released {
		return
	}
	fb.released = true
	liveBuffers.Add(-1)
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
		return fmt.Errorf("%w: %w", ErrWrite, err)
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

// Roundtrip runs one lockstep exchange on rw, the version-1 twin of
// mux.Session.Roundtrip: it writes the request frame from req, which it
// consumes whatever the outcome, and reads one reply of at most
// maxPayload bytes (0 means DefaultMaxPayload) into a pooled buffer the
// caller must Release. A MsgError reply comes back as *RemoteError (see
// Reply). A failed write wraps ErrWrite: the request never left whole,
// so the peer cannot have acted on it.
func Roundtrip(rw io.ReadWriter, t MsgType, req *Buffer, maxPayload int) (MsgType, *Buffer, error) {
	err := WriteFrameBuf(rw, t, req)
	req.Release()
	if err != nil {
		return 0, nil, err
	}
	return Reply(ReadFrameBuf(rw, maxPayload))
}

// Reply settles one reply read by any transport: a MsgError frame is
// decoded into a *RemoteError, with the server's code, detail and
// retry-after hint, and its buffer released; any other frame or error
// passes through. It is the one place a MsgError becomes an error.
func Reply(t MsgType, fb *Buffer, err error) (MsgType, *Buffer, error) {
	if err != nil || t != MsgError {
		return t, fb, err
	}
	er, err := DecodeErrorReply(fb.Payload())
	fb.Release()
	if err != nil {
		return 0, nil, err
	}
	return 0, nil, &RemoteError{Code: er.Code, Detail: er.Detail, RetryAfterMillis: er.RetryAfterMillis}
}

// WriteFrame writes one frame from a plain payload slice, copied into a
// pooled buffer first. It is kept for callers outside the module's
// transport; code that assembles a payload writes its Buffer with
// WriteFrameBuf or Roundtrip.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	fb := BufferFor(payload)
	err := WriteFrameBuf(w, t, fb)
	fb.Release()
	return err
}

// ReadFrame is ReadFrameBuf with the payload copied out into a slice
// the caller owns.
func ReadFrame(r io.Reader, maxPayload int) (MsgType, []byte, error) {
	t, fb, err := ReadFrameBuf(r, maxPayload)
	return t, CopyOut(fb), err
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

// An ErrorReply is the payload of MsgError: a code, human-readable
// detail and a back-pressure hint, RetryAfterMillis — how long the
// sender suggests waiting before retrying, nonzero only on overload
// rejections.
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
func EncodeErrorReply(code uint32, detail string, retryAfterMillis uint32) []byte {
	return encodePayload(8+xdr.SizeString(len(detail)), func(e *xdr.Encoder) {
		e.PutUint32(code)
		e.PutString(detail)
		e.PutUint32(retryAfterMillis)
	})
}

// DecodeErrorReply parses an error reply payload.
func DecodeErrorReply(p []byte) (ErrorReply, error) {
	return decodePayload(p, func(d *xdr.Decoder) (ErrorReply, error) {
		return ErrorReply{Code: d.Uint32(), Detail: d.String(), RetryAfterMillis: d.Uint32()}, nil
	})
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
