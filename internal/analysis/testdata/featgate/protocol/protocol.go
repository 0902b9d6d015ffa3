// Package protocol stands in for the wire package: it defines the
// feature-gated roots. The defining package is exempt from its own
// gates — encoders must build the messages they encode.
package protocol

type MsgType uint8

const (
	MsgCallReply    MsgType = 2
	MsgBulkBegin    MsgType = 5
	MsgBulkChunk    MsgType = 6
	MsgBulkAbort    MsgType = 7
	MsgCallDigest   MsgType = 10
	MsgDataHandle   MsgType = 11
	MsgDigestStatus MsgType = 12
)

const (
	MuxVersion      = 2
	MuxVersionBulk  = 3
	MuxVersionCache = 4
)

type BulkMsg struct{ N int }

// EncodeCallRequestChunks is a class-"bulk" root by name.
func EncodeCallRequestChunks(n int) (*BulkMsg, error) {
	return &BulkMsg{N: n}, nil
}

// Shape stands in for the argument encoder's placement value.
type Shape struct{ Threshold int }

// BulkShape is a class-"bulk" root by name: the only way to a shape
// that makes the encoder emit segments.
func BulkShape(threshold int) Shape { return Shape{Threshold: threshold} }

type Digest struct{ Hi, Lo uint64 }

type Buffer struct{ b []byte }

// B exposes the buffer's payload bytes.
func (f *Buffer) B() []byte { return f.b }

// EncodeDigestQueryBuf is a class-"cache" root by name.
func EncodeDigestQueryBuf(digs []Digest) *Buffer {
	return &Buffer{b: make([]byte, 16*len(digs))}
}

// EncodeCallRequestDigest is a class-"cache" root by name.
func EncodeCallRequestDigest(n int, digs []Digest) (*BulkMsg, *Buffer, error) {
	return &BulkMsg{N: n}, nil, nil
}

// WriteMsg is the send-side sink the fixture passes wire constants to.
func WriteMsg(t MsgType, payload []byte) error {
	_ = t
	_ = payload
	return nil
}
