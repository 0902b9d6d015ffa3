package protocol

import (
	"fmt"

	"ninf/internal/xdr"
)

// Replication frames, spoken between metaserver replicas (and only
// them). A replica set keeps compatible placement views by
// anti-entropy gossip: every state change — a server registration, a
// client's call outcome, a poll result — is a GossipRecord stamped
// with its origin and a per-origin sequence number, so replicas can
// exchange exactly the records the other is missing and apply each
// record at most once. The exchange is a single round trip: the caller
// sends its digest plus records it believes the peer lacks; the peer
// applies them, then answers with its own digest plus the records the
// caller's digest proves the caller lacks.
const (
	// MsgGossip carries one anti-entropy exchange from a peer replica.
	MsgGossip MsgType = iota + 68
	// MsgGossipOK answers with the receiver's digest and the records
	// the sender was missing.
	MsgGossipOK
)

// Gossip record kinds.
const (
	// GossipObserve is a call outcome (success, failure, or overload
	// rejection) reported by a client; its origin is the client, so a
	// report replayed to a second replica after failover deduplicates.
	GossipObserve uint32 = 1
	// GossipRegister adds a computational server to the replica set's
	// shared view.
	GossipRegister uint32 = 2
	// GossipDeregister removes one.
	GossipDeregister uint32 = 3
	// GossipStats is one replica's successful poll of a server:
	// self-reported stats plus the poll time, applied freshest-wins.
	GossipStats uint32 = 4
)

// GossipRecord is one replicated state change. Fields beyond Kind,
// Origin, Seq, and Name are meaningful per kind; unused ones ride as
// zeros (records are small control messages, and a fixed shape keeps
// the codec symmetric and dumb).
type GossipRecord struct {
	Origin string // who created the record (replica ID or client ID)
	Seq    uint64 // per-origin sequence number, 1-based
	Kind   uint32
	Name   string // server the record concerns

	// GossipRegister:
	Addr  string
	Power float64

	// GossipObserve:
	Bytes            int64
	Nanos            int64
	Failed           bool
	Overloaded       bool
	RetryAfterMillis uint32

	// GossipStats (and freshness for conflict resolution):
	AtUnixNanos int64
	Stats       []byte // encoded Stats, empty unless Kind is GossipStats
}

// sizeHint approximates the record's encoded size.
func (m *GossipRecord) sizeHint() int {
	return xdr.SizeString(len(m.Origin)) + xdr.SizeString(len(m.Name)) +
		xdr.SizeString(len(m.Addr)) + len(m.Stats) + 72
}

func (m *GossipRecord) encodeInto(e *xdr.Encoder) {
	e.PutString(m.Origin)
	e.PutUint64(m.Seq)
	e.PutUint32(m.Kind)
	e.PutString(m.Name)
	e.PutString(m.Addr)
	e.PutFloat64(m.Power)
	e.PutInt64(m.Bytes)
	e.PutInt64(m.Nanos)
	e.PutBool(m.Failed)
	e.PutBool(m.Overloaded)
	e.PutUint32(m.RetryAfterMillis)
	e.PutInt64(m.AtUnixNanos)
	e.PutOpaque(m.Stats)
}

func decodeGossipRecord(d *xdr.Decoder) GossipRecord {
	return GossipRecord{
		Origin:           d.String(),
		Seq:              d.Uint64(),
		Kind:             d.Uint32(),
		Name:             d.String(),
		Addr:             d.String(),
		Power:            d.Float64(),
		Bytes:            d.Int64(),
		Nanos:            d.Int64(),
		Failed:           d.Bool(),
		Overloaded:       d.Bool(),
		RetryAfterMillis: d.Uint32(),
		AtUnixNanos:      d.Int64(),
		Stats:            d.Opaque(),
	}
}

// GossipDigest summarizes one origin's records as held by a replica:
// every record with Seq <= Low is held (or was held and applied before
// pruning), and Max is the highest sequence seen. Records in (Low,
// Max] may have gaps — a client that failed over mid-stream leaves its
// early records on one replica and its late ones on another — so a
// peer answering a digest sends everything above Low it has;
// duplicates are discarded by the (origin, seq) identity.
type GossipDigest struct {
	Origin string
	Low    uint64
	Max    uint64
}

// The smallest encodings of a digest entry and of a record, every
// string and the Stats opaque empty: a list's count word is held to
// what the rest of its payload can hold, so a corrupt count cannot
// balloon an allocation, and the digest of a replica that has heard
// from many origins still decodes.
const (
	minDigestSize = 20
	minRecordSize = 72
)

// GossipRequest is the payload of MsgGossip.
type GossipRequest struct {
	// From is the sending replica's origin ID.
	From string
	// Digest summarizes the sender's log, one entry per origin.
	Digest []GossipDigest
	// Records are records the sender believes the receiver is missing
	// (empty on a first exchange, when the peer's digest is unknown).
	Records []GossipRecord
}

// SizeHint approximates the request's encoded size, for pooled-buffer
// acquisition.
func (m *GossipRequest) SizeHint() int {
	size := xdr.SizeString(len(m.From)) + 8
	for i := range m.Digest {
		size += xdr.SizeString(len(m.Digest[i].Origin)) + 16
	}
	for i := range m.Records {
		size += m.Records[i].sizeHint()
	}
	return size
}

// EncodeInto appends the request to e — the zero-copy path for callers
// encoding straight into a pooled frame buffer.
func (m *GossipRequest) EncodeInto(e *xdr.Encoder) {
	e.PutString(m.From)
	e.PutUint32(uint32(len(m.Digest)))
	for i := range m.Digest {
		e.PutString(m.Digest[i].Origin)
		e.PutUint64(m.Digest[i].Low)
		e.PutUint64(m.Digest[i].Max)
	}
	e.PutUint32(uint32(len(m.Records)))
	for i := range m.Records {
		m.Records[i].encodeInto(e)
	}
}

// Encode serializes the request.
func (m *GossipRequest) Encode() []byte {
	return encodePayload(m.SizeHint(), m.EncodeInto)
}

// DecodeGossipRequest parses a MsgGossip payload.
func DecodeGossipRequest(p []byte) (GossipRequest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (GossipRequest, error) {
		m := GossipRequest{From: d.String()}
		var err error
		m.Digest, m.Records, err = decodeGossipLists(d, len(p))
		return m, err
	})
}

// decodeGossipLists reads the digest and record lists that end both
// gossip payloads, of size bytes, refusing a count the payload's
// remaining bytes cannot hold.
func decodeGossipLists(d *xdr.Decoder, size int) ([]GossipDigest, []GossipRecord, error) {
	count := func(minSize int) (int, error) {
		n := d.Uint32()
		if err := d.Err(); err != nil {
			return 0, err
		}
		if left := size - int(d.Len()); int64(n) > int64(left/minSize) {
			return 0, fmt.Errorf("protocol: gossip list of %d entries in %d bytes", n, left)
		}
		return int(n), nil
	}
	nd, err := count(minDigestSize)
	if err != nil {
		return nil, nil, err
	}
	digest := make([]GossipDigest, 0, nd)
	for range nd {
		digest = append(digest, GossipDigest{Origin: d.String(), Low: d.Uint64(), Max: d.Uint64()})
	}
	nr, err := count(minRecordSize)
	if err != nil {
		return nil, nil, err
	}
	records := make([]GossipRecord, 0, nr)
	for range nr {
		records = append(records, decodeGossipRecord(d))
	}
	return digest, records, nil
}

// GossipReply is the payload of MsgGossipOK.
type GossipReply struct {
	// Digest summarizes the receiver's log after applying the request.
	Digest []GossipDigest
	// Records are the records the request's digest showed the sender
	// to be missing.
	Records []GossipRecord
}

// SizeHint approximates the reply's encoded size, for pooled-buffer
// acquisition.
func (m *GossipReply) SizeHint() int {
	size := 8
	for i := range m.Digest {
		size += xdr.SizeString(len(m.Digest[i].Origin)) + 16
	}
	for i := range m.Records {
		size += m.Records[i].sizeHint()
	}
	return size
}

// EncodeInto appends the reply to e — the zero-copy path for callers
// encoding straight into a pooled frame buffer.
func (m *GossipReply) EncodeInto(e *xdr.Encoder) {
	e.PutUint32(uint32(len(m.Digest)))
	for i := range m.Digest {
		e.PutString(m.Digest[i].Origin)
		e.PutUint64(m.Digest[i].Low)
		e.PutUint64(m.Digest[i].Max)
	}
	e.PutUint32(uint32(len(m.Records)))
	for i := range m.Records {
		m.Records[i].encodeInto(e)
	}
}

// Encode serializes the reply.
func (m *GossipReply) Encode() []byte {
	return encodePayload(m.SizeHint(), m.EncodeInto)
}

// DecodeGossipReply parses a MsgGossipOK payload.
func DecodeGossipReply(p []byte) (GossipReply, error) {
	return decodePayload(p, func(d *xdr.Decoder) (GossipReply, error) {
		var m GossipReply
		var err error
		m.Digest, m.Records, err = decodeGossipLists(d, len(p))
		return m, err
	})
}
