package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Chunked bulk streaming on a mux connection. A monolithic v2 frame
// carrying an 8 MiB argument occupies the session's single writer end
// to end, head-of-line blocking every pipelined small call behind it —
// the paper's mixed LAN/WAN workload (EP-style calls sharing links with
// LINPACK matrices) made exactly this cost visible. A mux connection
// keeps v2 framing but splits any payload over the sender's threshold
// into three frame kinds, all tagged with the owning Seq:
//
//	MsgBulkBegin  inner type, flags, head length, total length
//	MsgBulkChunk  offset, CRC-32C, data bytes (at most DefaultBulkChunk from our writers)
//	MsgBulkAbort  sender gave up mid-stream; drop the reassembly
//
// The logical payload is the "head" (normal XDR with bulk arrays
// replaced by marker words) followed by the raw element segments the
// markers point into. Chunks must arrive contiguously from offset 0;
// the receiver reassembles them into one pooled buffer sized up front
// and validates each chunk's CRC, so a desynchronized or corrupted
// stream fails the connection instead of delivering garbage.
//
// Bulk frames are legal on every mux connection; the Hello negotiates
// only whether the server's argument cache is granted. A client offers
// MaxVersion MuxVersionCache and the server answers MuxVersionCache,
// with HelloFlagArgCache set when its cache is on. The wire framing
// version stays 2 in every header.
const (
	// MuxVersionBulk is a Hello answer that means mux without the cache.
	// No server of this module sends it; the client still accepts it
	// because the benchmark harness's fake responder (benchmark/layers.go)
	// answers with it.
	MuxVersionBulk = 3

	// MuxVersionCache is the Hello version both ends of a mux connection
	// offer and answer. Whether digest references and data handles (see
	// digest.go) may appear on it is HelloFlagArgCache's to say.
	MuxVersionCache = 4

	// DefaultBulkThreshold is the payload size at or above which
	// requests and replies switch to chunked bulk frames.
	DefaultBulkThreshold = 256 << 10

	// DefaultBulkChunk is the ceiling on one MsgBulkChunk's data bytes,
	// and what WriteChunk cuts when given no limit. Small frames
	// interleave between chunks, so a chunk's write time is the
	// head-of-line wait a small call can meet; the mux writer therefore
	// sizes chunks in time, not bytes — what the connection is observed
	// to accept in a few milliseconds (internal/mux/engine.go) — and
	// only a path faster than ~128 MB/s runs at this ceiling. There
	// halving it costs measurable aggregate throughput on concurrent
	// transfers (per-chunk header reads defeat the buffered reader's
	// large-read pass-through). A receiver takes any chunk length up
	// to its payload limit.
	DefaultBulkChunk = 512 << 10

	// bulkChunkHdr is the chunk payload prologue: offset and CRC-32C.
	bulkChunkHdr = 8

	// bulkBeginLen is the fixed MsgBulkBegin payload length.
	bulkBeginLen = 16

	// bulkArgFlag marks a bulk-array count word in a head; the low 31
	// bits hold the element count and a u32 segment offset follows.
	// Counts stay below 2^31 because payloads are capped at 1 GiB.
	bulkArgFlag = 1 << 31

	// bulkFlagLE in MsgBulkBegin flags says segment data is
	// little-endian; clear means big-endian.
	bulkFlagLE = 1 << 0

	// bulkDigestFlag, set together with bulkArgFlag on a count word,
	// says the array's bytes are NOT in this message: two u64 words
	// follow holding the content digest of the (absent) segment, and
	// the receiver resolves them from its argument cache. Only on a
	// connection granted the cache; any other decode rejects the marker.
	bulkDigestFlag = 1 << 30
)

// Bulk frame types (v2 framing only, never spoken before negotiation).
const (
	MsgBulkBegin MsgType = iota + 130
	MsgBulkChunk
	MsgBulkAbort
)

// crcBulk is the chunk checksum polynomial (CRC-32C/Castagnoli,
// hardware-accelerated on current amd64 and arm64).
var crcBulk = crc32.MakeTable(crc32.Castagnoli)

// A BulkMsg is an encoded message ready for chunked streaming: the
// logical payload is the concatenation of Spans, whose first HeadLen
// bytes are the XDR head and whose remainder are raw bulk segments
// aliasing the caller's argument slices (zero-copy — the caller must
// not mutate those slices until the send completes or is abandoned).
// Release returns the pooled head buffer; the segment spans are only
// borrowed and are never released here.
type BulkMsg struct {
	Type    MsgType  // inner message type (MsgCall, MsgSubmit, MsgCallOK, MsgFetchOK)
	Spans   [][]byte // logical payload in order
	headLen int
	total   int
	le      bool
	head    *Buffer // pooled backing of the head span; nil when caller-owned
	arrays  *Arrays // pooled arrays the segment spans alias, once adopted
}

// Total reports the logical payload length (head plus segments).
func (m *BulkMsg) Total() int { return m.total }

// HeadLen reports the head's length within the logical payload.
func (m *BulkMsg) HeadLen() int { return m.headLen }

// Adopt hands the message the pooled arrays its segment spans alias:
// they stay out of the pool until the message is Released — by the
// writer that streamed it, or gave up on it — and go back then.
func (m *BulkMsg) Adopt(a *Arrays) { m.arrays = a }

// Release returns the pooled head buffer and any adopted arrays.
// Other segment spans are borrowed from the caller and untouched.
// Idempotent, like Buffer.Release.
func (m *BulkMsg) Release() {
	if m == nil {
		return
	}
	m.head.Release()
	m.head = nil
	m.arrays.Release()
	m.arrays = nil
	m.Spans = nil
}

// RawBulkMsg wraps an already-encoded monolithic payload for chunked
// streaming: the whole payload is the head (no markers, no segments),
// so the receiver decodes it exactly as it would a monolithic frame.
// The server's fetch path uses this to stream stored two-phase results
// without head-of-line blocking the session.
func RawBulkMsg(t MsgType, payload []byte) *BulkMsg {
	return &BulkMsg{
		Type:    t,
		Spans:   [][]byte{payload},
		headLen: len(payload),
		total:   len(payload),
		le:      hostLittle,
	}
}

// EncodeBegin builds the MsgBulkBegin payload in a pooled buffer. The
// caller owns the buffer and must Release it after the write.
func (m *BulkMsg) EncodeBegin() *Buffer {
	fb := AcquireBuffer(bulkBeginLen)
	e := fb.Encoder()
	e.PutUint32(uint32(m.Type))
	var flags uint32
	if m.le {
		flags |= bulkFlagLE
	}
	e.PutUint32(flags)
	e.PutUint32(uint32(m.headLen))
	e.PutUint32(uint32(m.total))
	return fb
}

// Cursor returns a chunk cursor positioned at the start of the message.
func (m *BulkMsg) Cursor() BulkCursor { return BulkCursor{m: m} }

// A BulkCursor walks a BulkMsg's logical payload in chunk-sized steps,
// tracking how much has reached the wire so a scheduler can interleave
// other frames between chunks.
type BulkCursor struct {
	m    *BulkMsg
	span int
	off  int // within the current span
	sent int // logical bytes written so far
}

// Done reports whether every byte has been written.
func (c *BulkCursor) Done() bool { return c.sent == c.m.total }

// Sent reports how many logical payload bytes have been written.
func (c *BulkCursor) Sent() int { return c.sent }

// bulkWriter is pooled scratch for WriteChunk's vectored write: the
// 16-byte mux header and 8-byte chunk prologue share one contiguous
// block, followed by the data spans.
type bulkWriter struct {
	hdr [headerSize + bulkChunkHdr]byte
	vec net.Buffers
}

var bulkWriterPool = sync.Pool{New: func() any { return new(bulkWriter) }}

// WriteChunk writes the next chunk (at most limit data bytes, 0 means
// DefaultBulkChunk) of the cursor's message to w as one vectored write:
// the header from pooled scratch, the data straight from the message's
// spans — the caller's slices are never copied. It returns true once
// the final chunk is on the wire.
func (c *BulkCursor) WriteChunk(w io.Writer, seq uint32, limit int) (bool, error) {
	if limit <= 0 {
		limit = DefaultBulkChunk
	}
	n := c.m.total - c.sent
	if n > limit {
		n = limit
	}
	bw := bulkWriterPool.Get().(*bulkWriter)
	putU32(bw.hdr[0:], Magic)
	putU32(bw.hdr[4:], MuxVersion<<16|uint32(MsgBulkChunk)&maxMuxType)
	putU32(bw.hdr[8:], seq)
	putU32(bw.hdr[12:], uint32(n+bulkChunkHdr))
	putU32(bw.hdr[16:], uint32(c.sent))
	vec := append(bw.vec[:0], bw.hdr[:])
	crc := uint32(0)
	left, span, off := n, c.span, c.off
	for left > 0 {
		s := c.m.Spans[span][off:]
		take := len(s)
		if take > left {
			take = left
		}
		seg := s[:take]
		crc = crc32.Update(crc, crcBulk, seg)
		vec = append(vec, seg)
		left -= take
		off += take
		if off == len(c.m.Spans[span]) {
			span, off = span+1, 0
		}
	}
	putU32(bw.hdr[20:], crc)
	spans := len(vec)
	bw.vec = vec
	_, err := bw.vec.WriteTo(w)
	for i := 0; i < spans; i++ {
		vec[i] = nil // drop caller-slice references before pooling
	}
	bw.vec = vec[:0]
	bulkWriterPool.Put(bw)
	if err != nil {
		return false, fmt.Errorf("protocol: write bulk chunk: %w", err)
	}
	c.span, c.off, c.sent = span, off, c.sent+n
	return c.sent == c.m.total, nil
}

// BulkInfo accompanies a reassembled bulk payload through decode: Base
// is the full logical payload (head plus segments, aliasing the frame
// buffer), HeadLen bounds the sequentially-decoded head, and LE records
// the sender's segment byte order. A nil *BulkInfo in a decode call
// means "monolithic frame" and rejects bulk markers outright.
type BulkInfo struct {
	Base    []byte
	HeadLen int
	LE      bool

	// Resolver, when non-nil, supplies the bytes behind digest markers
	// (cache-granted connections only): it returns the cached
	// little-endian element bytes for a digest, or ErrDigestMiss when the
	// entry is gone. A nil Resolver rejects digest markers, so pre-cache decode
	// paths are untouched.
	Resolver DigestResolver
}

// Head returns the sequentially-decoded portion of the payload.
func (b *BulkInfo) Head() []byte { return b.Base[:b.HeadLen] }

// BulkDone is one fully reassembled bulk message: the inner type, the
// pooled buffer holding the logical payload (the receiver owns it and
// must Release after decode), and the decode metadata.
type BulkDone struct {
	Type MsgType
	FB   *Buffer
	Bulk BulkInfo
}

// openBulk counts reassemblies currently holding a pooled buffer, on
// either side of any connection. Leak checks assert it returns to zero
// after chaos runs and teardowns.
var openBulk atomic.Int64

// OpenBulkReassemblies reports in-progress bulk reassemblies holding
// buffers, process-wide.
func OpenBulkReassemblies() int64 { return openBulk.Load() }

// A Reassembler rebuilds chunked bulk messages for one connection's
// read loop. It is not safe for concurrent use; exactly one read loop
// drives it. Close releases whatever is still half-assembled (the leak
// path the chaos tests cut connections to exercise).
type Reassembler struct {
	maxPayload int
	maxOpen    int
	open       map[uint32]*reassembly
	scratch    []byte
}

type reassembly struct {
	inner   MsgType
	fb      *Buffer // nil in discard mode
	headLen int
	le      bool
	got     int
	total   int
}

// NewReassembler builds a reassembler enforcing the connection's
// payload bound and a cap on concurrently-open reassemblies (a peer
// opening more is broken or hostile).
func NewReassembler(maxPayload, maxOpen int) *Reassembler {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if maxOpen <= 0 {
		maxOpen = 64
	}
	return &Reassembler{
		maxPayload: maxPayload,
		maxOpen:    maxOpen,
		open:       make(map[uint32]*reassembly),
	}
}

// Open reports reassemblies currently holding a buffer.
func (ra *Reassembler) Open() int {
	n := 0
	for _, re := range ra.open {
		if re.fb != nil {
			n++
		}
	}
	return n
}

// Begin opens a reassembly for seq from a MsgBulkBegin payload. With
// discard set the chunks are validated and dropped without buffering —
// the receiver no longer wants the message (abandoned Seq) but must
// stay in stream sync.
func (ra *Reassembler) Begin(seq uint32, payload []byte, discard bool) error {
	if len(payload) != bulkBeginLen {
		return fmt.Errorf("protocol: bulk begin payload %d bytes, want %d", len(payload), bulkBeginLen)
	}
	if _, dup := ra.open[seq]; dup {
		return fmt.Errorf("protocol: duplicate bulk begin for seq %d", seq)
	}
	if len(ra.open) >= ra.maxOpen {
		return fmt.Errorf("protocol: more than %d concurrent bulk reassemblies", ra.maxOpen)
	}
	inner := MsgType(getU32(payload[0:]))
	flags := getU32(payload[4:])
	headLen := int(getU32(payload[8:]))
	total := int(getU32(payload[12:]))
	if total > ra.maxPayload {
		return fmt.Errorf("%w: bulk total %d bytes", ErrOversized, total)
	}
	if headLen > total {
		return fmt.Errorf("protocol: bulk head %d exceeds total %d", headLen, total)
	}
	re := &reassembly{
		inner:   inner,
		headLen: headLen,
		le:      flags&bulkFlagLE != 0,
		total:   total,
	}
	if !discard {
		fb := AcquireBuffer(total)
		fb.b = fb.b[:headerSize+total]
		re.fb = fb
		openBulk.Add(1)
	}
	ra.open[seq] = re
	return nil
}

// ReadChunk consumes one MsgBulkChunk for seq whose payload is n bytes,
// reading the data directly from r into the reassembly buffer (no
// intermediate frame buffer). It validates strict offset contiguity and
// the chunk CRC; any violation is a protocol error that must fail the
// connection. A non-nil BulkDone means the message completed and the
// caller now owns its buffer; a discarded message completes silently.
func (ra *Reassembler) ReadChunk(r io.Reader, seq uint32, n int) (*BulkDone, error) {
	re, ok := ra.open[seq]
	if !ok {
		return nil, fmt.Errorf("protocol: bulk chunk for seq %d without begin", seq)
	}
	if n < bulkChunkHdr {
		return nil, fmt.Errorf("protocol: bulk chunk payload %d bytes, want at least %d", n, bulkChunkHdr)
	}
	var hdr [bulkChunkHdr]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("protocol: read bulk chunk header: %w", err)
	}
	off := int(getU32(hdr[0:]))
	want := getU32(hdr[4:])
	data := n - bulkChunkHdr
	if off != re.got {
		return nil, fmt.Errorf("protocol: bulk chunk offset %d for seq %d, want %d", off, seq, re.got)
	}
	if re.got+data > re.total {
		return nil, fmt.Errorf("protocol: bulk chunk overruns total %d for seq %d", re.total, seq)
	}
	var crc uint32
	if re.fb != nil {
		dst := re.fb.b[headerSize+re.got : headerSize+re.got+data]
		if _, err := io.ReadFull(r, dst); err != nil {
			return nil, fmt.Errorf("protocol: read bulk chunk: %w", err)
		}
		crc = crc32.Checksum(dst, crcBulk)
	} else {
		if ra.scratch == nil {
			ra.scratch = make([]byte, 32<<10)
		}
		for left := data; left > 0; {
			take := left
			if take > len(ra.scratch) {
				take = len(ra.scratch)
			}
			if _, err := io.ReadFull(r, ra.scratch[:take]); err != nil {
				return nil, fmt.Errorf("protocol: read bulk chunk: %w", err)
			}
			crc = crc32.Update(crc, crcBulk, ra.scratch[:take])
			left -= take
		}
	}
	if crc != want {
		return nil, fmt.Errorf("protocol: bulk chunk CRC mismatch for seq %d at offset %d", seq, off)
	}
	re.got += data
	if re.got < re.total {
		return nil, nil
	}
	delete(ra.open, seq)
	if re.fb == nil {
		return nil, nil // discarded message completed
	}
	openBulk.Add(-1)
	return &BulkDone{
		Type: re.inner,
		FB:   re.fb,
		Bulk: BulkInfo{Base: re.fb.Payload(), HeadLen: re.headLen, LE: re.le},
	}, nil
}

// Abort removes seq's reassembly entirely (the sender gave up and will
// send no more chunks). Unknown seqs are ignored.
func (ra *Reassembler) Abort(seq uint32) {
	re, ok := ra.open[seq]
	if !ok {
		return
	}
	delete(ra.open, seq)
	if re.fb != nil {
		re.fb.Release()
		openBulk.Add(-1)
	}
}

// Close releases every half-assembled buffer; the connection is gone.
func (ra *Reassembler) Close() {
	for seq, re := range ra.open {
		delete(ra.open, seq)
		if re.fb != nil {
			re.fb.Release()
			openBulk.Add(-1)
		}
	}
}

// ReadMuxHeader reads and validates one v2 frame header, returning the
// type, sequence number, and payload length still unread on r. Bulk-
// aware read loops use it so chunk data can be read straight into the
// reassembly buffer; ReadMuxFrameBuf composes it for whole frames.
func ReadMuxHeader(r io.Reader, maxPayload int) (MsgType, uint32, int, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	hdr, err := readHeader(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, 0, io.EOF
		}
		return 0, 0, 0, fmt.Errorf("protocol: read mux header: %w", err)
	}
	if getU32(hdr[0:]) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	vt := getU32(hdr[4:])
	if v := vt >> 16; v != MuxVersion {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	t := MsgType(vt & maxMuxType)
	seq := getU32(hdr[8:])
	n := int(getU32(hdr[12:]))
	if n > maxPayload {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", ErrOversized, n)
	}
	return t, seq, n, nil
}

// readHeader reads one frame header. From a bufio.Reader — the mux read
// loops' — it is peeked in place: an array handed to r.Read escapes, one
// allocation per frame. The peeked bytes stay valid until r is next read.
func readHeader(r io.Reader) ([]byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		hdr := make([]byte, headerSize)
		_, err := io.ReadFull(r, hdr)
		return hdr, err
	}
	hdr, err := br.Peek(headerSize)
	if len(hdr) > 0 && errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF // as io.ReadFull reports a torn header
	}
	br.Discard(len(hdr))
	return hdr, err
}

// ReadMuxPayload reads an n-byte payload (already validated by
// ReadMuxHeader) into a pooled buffer the caller must Release.
func ReadMuxPayload(r io.Reader, n int) (*Buffer, error) {
	fb := AcquireBuffer(n)
	fb.b = fb.b[:headerSize+n]
	if _, err := io.ReadFull(r, fb.b[headerSize:]); err != nil {
		fb.Release()
		return nil, fmt.Errorf("protocol: read mux payload: %w", err)
	}
	return fb, nil
}
