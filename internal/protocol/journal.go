package protocol

import (
	"encoding/binary"
	"fmt"

	"ninf/internal/xdr"
)

// Journal records are the wire-independent encoding of the server's
// crash-recovery write-ahead log (internal/server/journal). Each record
// describes one transition in a two-phase job's life: admitted
// (JournalSubmit), finished (JournalComplete), delivered or expired
// (JournalFetched). Replaying the surviving records after a crash
// reconstructs exactly the jobs a client could still legitimately ask
// about — queued work re-executes, completed-but-unfetched results are
// re-served under their original job IDs and idempotency keys, and
// everything already delivered stays gone.
//
// The codec lives here rather than in the journal package because the
// payloads it wraps are protocol payloads (a plain-encoded call
// request, a pre-encoded MsgFetchOK reply), and because the framing
// fuzz targets for every other on-the-wire decoder already live in
// this package.

// JournalKind discriminates journal records.
type JournalKind uint32

// Journal record kinds.
const (
	// JournalSubmit records an admitted two-phase job: its server job
	// ID, the client's idempotency key, the fair-queueing client tag,
	// and the call request re-encoded in plain (digest-free, monolithic)
	// form so replay can decode it against an empty argument cache.
	JournalSubmit JournalKind = 1
	// JournalComplete records a finished job: the pre-encoded
	// MsgFetchOK reply when the result fit the journal's size cap (an
	// empty payload means it did not, and replay re-executes the job),
	// or the terminal error code and detail when execution failed.
	JournalComplete JournalKind = 2
	// JournalFetched records that the job's result was delivered to the
	// client (or expired); replay drops the job entirely.
	JournalFetched JournalKind = 3
)

// JournalRecord is one entry in the submit journal.
type JournalRecord struct {
	Kind  JournalKind
	JobID uint64
	// Key is the submit idempotency key (JournalSubmit; 0 = none).
	Key uint64
	// Client is the admitting connection's fair-queueing identity
	// (JournalSubmit). Restored so per-client accounting survives
	// replay.
	Client string
	// ErrCode and ErrDetail record a failed execution
	// (JournalComplete); ErrCode 0 means success.
	ErrCode   uint32
	ErrDetail string
	// Payload is kind-dependent: the plain call-request bytes
	// (JournalSubmit) or the pre-encoded reply (JournalComplete).
	Payload []byte
}

// Encode serializes the record.
func (r *JournalRecord) Encode() []byte { return r.AppendTo(nil) }

// AppendTo appends the record's encoding to b: the one encoder behind
// Encode and the journal's framer, which writes records straight into
// its pending tail with no intermediate buffer.
func (r *JournalRecord) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(r.Kind))
	b = binary.BigEndian.AppendUint64(b, r.JobID)
	b = binary.BigEndian.AppendUint64(b, r.Key)
	b = appendOpaque(b, r.Client)
	b = binary.BigEndian.AppendUint32(b, r.ErrCode)
	b = appendOpaque(b, r.ErrDetail)
	return appendOpaque(b, r.Payload)
}

// appendOpaque appends v as XDR variable-length opaque data (a string is
// the same bytes): the count word, the bytes, zero padding to a word.
func appendOpaque[T string | []byte](b []byte, v T) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	b = append(b, v...)
	return append(b, make([]byte, xdr.SizeOpaque(len(v))-4-len(v))...)
}

// DecodeJournalRecord parses one journal record body. The returned
// record owns its byte slices (nothing aliases p).
func DecodeJournalRecord(p []byte) (JournalRecord, error) {
	return decodePayload(p, func(d *xdr.Decoder) (JournalRecord, error) {
		r := JournalRecord{
			Kind:      JournalKind(d.Uint32()),
			JobID:     d.Uint64(),
			Key:       d.Uint64(),
			Client:    d.String(),
			ErrCode:   d.Uint32(),
			ErrDetail: d.String(),
			Payload:   d.Opaque(),
		}
		if err := d.Err(); err != nil {
			return r, err
		}
		switch r.Kind {
		case JournalSubmit, JournalComplete, JournalFetched:
		default:
			return r, fmt.Errorf("protocol: unknown journal record kind %d", r.Kind)
		}
		if r.JobID == 0 {
			return r, fmt.Errorf("protocol: journal record without job ID")
		}
		return r, nil
	})
}
