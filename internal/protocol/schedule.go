package protocol

import (
	"fmt"

	"ninf/internal/xdr"
)

// Scheduling frames, spoken between clients and the metaserver daemon
// (§2.4). They extend the base protocol: a metaserver answers MsgPing
// and MsgStats like a computational server, plus MsgSchedule.
const (
	// MsgSchedule asks the metaserver to place one Ninf_call.
	MsgSchedule MsgType = iota + 64
	// MsgScheduleOK carries the chosen server.
	MsgScheduleOK
	// MsgObserve reports a completed (or failed) call back to the
	// metaserver so it can track achievable bandwidth per client,
	// the quantity §4.2.3 shows must drive WAN placement.
	MsgObserve
	// MsgObserveOK acknowledges an observation.
	MsgObserveOK
)

// ScheduleRequest describes a pending call for placement. Byte counts
// are the client's own estimate from its argument sizes; Ops is the
// IDL-declared complexity when the client knows it, else 0.
type ScheduleRequest struct {
	Routine  string
	InBytes  int64
	OutBytes int64
	Ops      int64
	// Exclude lists server names the client wants avoided, used for
	// fault-tolerant retry on a different server.
	Exclude []string
	// Affinity names the server whose argument cache is warm for this
	// call (a transaction dependency's executing server), so placement
	// can bind downstream calls to the data. It rides as an optional
	// trailer after Exclude — old daemons ignore it, old clients never
	// send it. Advisory: an ineligible affinity server is skipped.
	Affinity string
}

// Encode serializes the request.
func (m *ScheduleRequest) Encode() []byte {
	size := xdr.SizeString(len(m.Routine)) + 28
	if m.Affinity != "" {
		size += xdr.SizeString(len(m.Affinity))
	}
	return encodePayload(size, func(e *xdr.Encoder) {
		e.PutString(m.Routine)
		e.PutInt64(m.InBytes)
		e.PutInt64(m.OutBytes)
		e.PutInt64(m.Ops)
		e.PutUint32(uint32(len(m.Exclude)))
		for i := range m.Exclude {
			e.PutString(m.Exclude[i])
		}
		if m.Affinity != "" {
			e.PutString(m.Affinity)
		}
	})
}

// maxExclude bounds a schedule request's Exclude list.
const maxExclude = 1024

// DecodeScheduleRequest parses a MsgSchedule payload. An Exclude count
// above maxExclude, or above what the rest of the payload can hold (4
// bytes a name), is refused rather than read short, which would take
// the next name for the Affinity trailer.
func DecodeScheduleRequest(p []byte) (ScheduleRequest, error) {
	pd := acquireDecoder(p)
	defer pd.release()
	d := &pd.d
	m := ScheduleRequest{
		Routine:  d.String(),
		InBytes:  d.Int64(),
		OutBytes: d.Int64(),
		Ops:      d.Int64(),
	}
	n := d.Uint32()
	if err := d.Err(); err != nil {
		return m, err
	}
	if n > maxExclude || int(n) > (len(p)-int(d.Len()))/4 {
		return m, fmt.Errorf("protocol: schedule request excludes %d servers (at most %d)", n, maxExclude)
	}
	for range n {
		m.Exclude = append(m.Exclude, d.String())
	}
	if d.Err() == nil && len(p)-int(d.Len()) >= 4 {
		m.Affinity = d.String()
	}
	return m, d.Err()
}

// ScheduleReply names the chosen server and its dial address.
type ScheduleReply struct {
	Name string
	Addr string
}

// Encode serializes the reply.
func (m *ScheduleReply) Encode() []byte {
	return encodePayload(xdr.SizeString(len(m.Name))+xdr.SizeString(len(m.Addr)), func(e *xdr.Encoder) {
		e.PutString(m.Name)
		e.PutString(m.Addr)
	})
}

// DecodeScheduleReply parses a MsgScheduleOK payload.
func DecodeScheduleReply(p []byte) (ScheduleReply, error) {
	pd := acquireDecoder(p)
	m := ScheduleReply{Name: pd.d.String(), Addr: pd.d.String()}
	err := pd.d.Err()
	pd.release()
	return m, err
}

// ObserveRequest feeds a completed call back to the metaserver. The
// overload fields ride as an optional trailer so old daemons and old
// clients interoperate: Overloaded distinguishes back-pressure (the
// server answered, but rejected for load) from genuine failure, and
// RetryAfterMillis relays the server's hint so the metaserver can size
// its placement-penalty window.
type ObserveRequest struct {
	Name             string // server the call ran on
	Bytes            int64  // payload bytes both ways
	Nanos            int64  // wall-clock duration
	Failed           bool   // the call errored (server suspect)
	Overloaded       bool   // the failure was an overload rejection
	RetryAfterMillis uint32 // server's back-pressure hint, 0 if none
	// Origin and Seq, a second optional trailer, make the report
	// idempotent: a client that resends an unacknowledged observation
	// to another replica after a metaserver failover stamps both sends
	// identically, so the replica set counts the outcome once, not per
	// delivery. Zero Origin means a legacy (pre-HA) client.
	Origin string
	Seq    uint64
}

// Encode serializes the observation.
func (m *ObserveRequest) Encode() []byte {
	return encodePayload(xdr.SizeString(len(m.Name))+xdr.SizeString(len(m.Origin))+36, func(e *xdr.Encoder) {
		e.PutString(m.Name)
		e.PutInt64(m.Bytes)
		e.PutInt64(m.Nanos)
		e.PutBool(m.Failed)
		e.PutBool(m.Overloaded)
		e.PutUint32(m.RetryAfterMillis)
		e.PutString(m.Origin)
		e.PutUint64(m.Seq)
	})
}

// DecodeObserveRequest parses a MsgObserve payload.
func DecodeObserveRequest(p []byte) (ObserveRequest, error) {
	pd := acquireDecoder(p)
	d := &pd.d
	m := ObserveRequest{
		Name:   d.String(),
		Bytes:  d.Int64(),
		Nanos:  d.Int64(),
		Failed: d.Bool(),
	}
	if d.Err() == nil && len(p)-int(d.Len()) >= 8 {
		m.Overloaded = d.Bool()
		m.RetryAfterMillis = d.Uint32()
	}
	if d.Err() == nil && len(p)-int(d.Len()) >= 12 {
		m.Origin = d.String()
		m.Seq = d.Uint64()
	}
	err := d.Err()
	pd.release()
	return m, err
}
