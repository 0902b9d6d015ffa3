package protocol

import (
	"fmt"
	"io"
	"net"

	"ninf/internal/xdr"
)

// Multiplexed framing (protocol version 2). The lockstep protocol
// (version 1) carries one exchange at a time per connection: the
// client writes a request frame and blocks until the reply frame
// arrives. Version 2 multiplexes many in-flight exchanges over one
// connection by tagging every frame with a client-assigned sequence
// number, so a session layer can pipeline requests and demultiplex
// replies — the request-coalescing shape the paper's §4 multi-client
// measurements call for once per-call connection overhead dominates.
//
// A version-2 frame keeps the 16-byte header (and thus the Buffer
// layout) of version 1 but repacks the second and third words:
//
//	word 0  Magic
//	word 1  MuxVersion<<16 | MsgType   (type must fit 16 bits)
//	word 2  Seq
//	word 3  payload length
//
// Version 1 peers never see version-2 frames: both sides speak
// lockstep framing until a MsgHello/MsgHelloOK exchange negotiates the
// upgrade, and peers that predate MsgHello answer it with MsgError,
// which the session layer takes as "legacy, stay lockstep".
const (
	// MuxVersion is the framing version in every mux frame header. The
	// Hello that switches a connection to it offers and answers
	// MuxVersionCache; a Hello offering less gets the legacy MsgError.
	MuxVersion = 2

	// maxMuxType bounds message types representable in a mux header's
	// packed version/type word.
	maxMuxType = 1<<16 - 1
)

// Hello frames, spoken in version-1 framing before any upgrade.
const (
	// MsgHello asks the peer to switch the connection to mux framing;
	// its payload offers the version, MuxVersionCache.
	MsgHello MsgType = iota + 120
	// MsgHelloOK accepts: its payload names the chosen version, and
	// every subsequent frame on the connection uses that framing.
	MsgHelloOK
)

// HelloRequest is the payload of MsgHello.
type HelloRequest struct {
	// MaxVersion is the highest protocol version the sender speaks.
	MaxVersion uint32
}

// Encode serializes the request.
func (m *HelloRequest) Encode() []byte {
	return encodePayload(4, func(e *xdr.Encoder) {
		e.PutUint32(m.MaxVersion)
	})
}

// DecodeHelloRequest parses a MsgHello payload.
func DecodeHelloRequest(p []byte) (HelloRequest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (HelloRequest, error) {
		return HelloRequest{MaxVersion: d.Uint32()}, nil
	})
}

// HelloFlagArgCache in HelloReply flags is the server's cache grant: it
// runs an enabled argument cache, so the client may send digest
// references, data-handle requests and retain flags. Without it the
// connection carries no cache frame in either direction.
const HelloFlagArgCache uint32 = 1 << 0

// HelloReply is the payload of MsgHelloOK.
type HelloReply struct {
	// Version is the protocol version the connection switches to.
	Version uint32
	// Flags advertises optional server capabilities at the negotiated
	// version.
	Flags uint32
	// Epoch is the server's incarnation epoch, minted per start by
	// crash-recovery journal servers (see internal/server/journal) and
	// zero on journal-less ones. A client that sees the epoch change
	// across reconnects knows the server restarted: warm-digest sets and
	// data handles minted against the old incarnation are stale.
	Epoch uint64
}

// Encode serializes the reply.
func (m *HelloReply) Encode() []byte {
	return encodePayload(16, func(e *xdr.Encoder) {
		e.PutUint32(m.Version)
		e.PutUint32(m.Flags)
		e.PutUint64(m.Epoch)
	})
}

// DecodeHelloReply parses a MsgHelloOK payload.
func DecodeHelloReply(p []byte) (HelloReply, error) {
	return decodePayload(p, func(d *xdr.Decoder) (HelloReply, error) {
		return HelloReply{Version: d.Uint32(), Flags: d.Uint32(), Epoch: d.Uint64()}, nil
	})
}

// StampMux writes a version-2 header for the buffer's current payload
// into its reserved prefix. The buffer is then a complete wire frame
// ready for WriteStampedFrames or a direct write.
func StampMux(fb *Buffer, t MsgType, seq uint32) {
	putU32(fb.b[0:], Magic)
	putU32(fb.b[4:], MuxVersion<<16|uint32(t)&maxMuxType)
	putU32(fb.b[8:], seq)
	putU32(fb.b[12:], uint32(fb.Len()))
}

// BufferFor copies an already-encoded payload into a pooled buffer, so
// []byte-producing encode paths can feed buffer-consuming writers.
func BufferFor(payload []byte) *Buffer {
	fb := AcquireBuffer(len(payload))
	fb.b = append(fb.b, payload...)
	return fb
}

// WriteMuxFrameBuf stamps a version-2 header and writes the frame with
// a single Write call.
func WriteMuxFrameBuf(w io.Writer, t MsgType, seq uint32, fb *Buffer) error {
	StampMux(fb, t, seq)
	if _, err := w.Write(fb.b); err != nil {
		return fmt.Errorf("protocol: write mux frame: %w", err)
	}
	return nil
}

// WriteMuxFrame writes one version-2 frame from a plain payload slice,
// copied into a pooled buffer first.
func WriteMuxFrame(w io.Writer, t MsgType, seq uint32, payload []byte) error {
	fb := BufferFor(payload)
	err := WriteMuxFrameBuf(w, t, seq, fb)
	fb.Release()
	return err
}

// WriteStampedFrames gathers already-stamped frames into a single
// vectored write (writev on TCP connections), so a burst of queued
// small requests costs one syscall instead of one each. The caller
// retains ownership of the buffers and releases them afterwards.
func WriteStampedFrames(w io.Writer, fbs []*Buffer) error {
	if len(fbs) == 0 {
		return nil
	}
	if len(fbs) == 1 {
		if _, err := w.Write(fbs[0].b); err != nil {
			return fmt.Errorf("protocol: write mux frames: %w", err)
		}
		return nil
	}
	vec := make(net.Buffers, len(fbs))
	for i, fb := range fbs {
		vec[i] = fb.b
	}
	if _, err := vec.WriteTo(w); err != nil {
		return fmt.Errorf("protocol: write mux frames: %w", err)
	}
	return nil
}

// ReadMuxFrameBuf reads one version-2 frame into a pooled buffer
// (maxPayload 0 means DefaultMaxPayload). The caller owns the buffer
// and must Release it after decoding. A clean EOF between frames is
// returned as io.EOF undecorated.
func ReadMuxFrameBuf(r io.Reader, maxPayload int) (MsgType, uint32, *Buffer, error) {
	t, seq, n, err := ReadMuxHeader(r, maxPayload)
	if err != nil {
		return 0, 0, nil, err
	}
	fb, err := ReadMuxPayload(r, n)
	if err != nil {
		return 0, 0, nil, err
	}
	return t, seq, fb, nil
}
