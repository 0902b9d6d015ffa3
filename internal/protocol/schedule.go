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
	// can bind downstream calls to the data; empty for none. Advisory:
	// an ineligible affinity server is skipped.
	Affinity string
}

// Encode serializes the request.
func (m *ScheduleRequest) Encode() []byte {
	return encodePayload(xdr.SizeString(len(m.Routine))+28+xdr.SizeString(len(m.Affinity)), func(e *xdr.Encoder) {
		e.PutString(m.Routine)
		e.PutInt64(m.InBytes)
		e.PutInt64(m.OutBytes)
		e.PutInt64(m.Ops)
		e.PutUint32(uint32(len(m.Exclude)))
		for i := range m.Exclude {
			e.PutString(m.Exclude[i])
		}
		e.PutString(m.Affinity)
	})
}

// maxExclude bounds a schedule request's Exclude list.
const maxExclude = 1024

// DecodeScheduleRequest parses a MsgSchedule payload. An Exclude count
// above maxExclude, or above what the rest of the payload can hold (4
// bytes a name), is refused before anything is read for it.
func DecodeScheduleRequest(p []byte) (ScheduleRequest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (ScheduleRequest, error) {
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
		m.Affinity = d.String()
		return m, nil
	})
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
	return decodePayload(p, func(d *xdr.Decoder) (ScheduleReply, error) {
		return ScheduleReply{Name: d.String(), Addr: d.String()}, nil
	})
}

// ObserveRequest feeds a completed call back to the metaserver.
// Overloaded distinguishes back-pressure (the server answered, but
// rejected for load) from genuine failure, and RetryAfterMillis relays
// the server's hint so the metaserver can size its placement-penalty
// window.
type ObserveRequest struct {
	Name             string // server the call ran on
	Bytes            int64  // payload bytes both ways
	Nanos            int64  // wall-clock duration
	Failed           bool   // the call errored (server suspect)
	Overloaded       bool   // the failure was an overload rejection
	RetryAfterMillis uint32 // server's back-pressure hint, 0 if none
	// Origin and Seq make the report idempotent: a client that resends
	// an unacknowledged observation to another replica after a
	// metaserver failover stamps both sends identically, so the replica
	// set counts the outcome once, not per delivery. An empty Origin
	// opts out of dedupe.
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
	return decodePayload(p, func(d *xdr.Decoder) (ObserveRequest, error) {
		return ObserveRequest{
			Name:             d.String(),
			Bytes:            d.Int64(),
			Nanos:            d.Int64(),
			Failed:           d.Bool(),
			Overloaded:       d.Bool(),
			RetryAfterMillis: d.Uint32(),
			Origin:           d.String(),
			Seq:              d.Uint64(),
		}, nil
	})
}
