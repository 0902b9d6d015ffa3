package protocol

import (
	"fmt"
	"time"

	"ninf/internal/xdr"
)

// A RoutineTrace is the per-routine execution history a server
// accumulates: §5.1 proposes exactly this ("IDL and server execution
// trace will give us effective information for predicting the
// communication transfer time versus computing time"). The metaserver
// and the SJF policy consume it; clients can fetch it with MsgTrace.
type RoutineTrace struct {
	Name string
	// Count is the number of completed executions.
	Count int64
	// Failures counts executions that returned an error.
	Failures int64
	// MeanCompute is the mean wall-clock of the executable itself
	// (dequeue→complete).
	MeanCompute time.Duration
	// MeanWait is the mean queueing delay (enqueue→dequeue).
	MeanWait time.Duration
	// MeanBytes is the mean request payload size.
	MeanBytes int64
}

// minTraceSize is the smallest encoding of one RoutineTrace (an empty
// name): a MsgTraceOK count word above what the payload can hold is
// refused before anything is allocated.
const minTraceSize = 44

// EncodeTraces serializes an execution history, the MsgTraceOK payload.
func EncodeTraces(ts []RoutineTrace) []byte {
	size := 4
	for i := range ts {
		size += xdr.SizeString(len(ts[i].Name)) + 40
	}
	return encodePayload(size, func(e *xdr.Encoder) {
		e.PutUint32(uint32(len(ts)))
		for i := range ts {
			t := &ts[i]
			e.PutString(t.Name)
			e.PutInt64(t.Count)
			e.PutInt64(t.Failures)
			e.PutInt64(int64(t.MeanCompute))
			e.PutInt64(int64(t.MeanWait))
			e.PutInt64(t.MeanBytes)
		}
	})
}

// DecodeTraces parses a MsgTraceOK payload.
func DecodeTraces(p []byte) ([]RoutineTrace, error) {
	return decodePayload(p, func(d *xdr.Decoder) ([]RoutineTrace, error) {
		n := d.Uint32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if int64(n) > int64((len(p)-4)/minTraceSize) {
			return nil, fmt.Errorf("protocol: trace list of %d entries in %d bytes", n, len(p)-4)
		}
		out := make([]RoutineTrace, 0, n)
		for range n {
			out = append(out, RoutineTrace{
				Name:        d.String(),
				Count:       d.Int64(),
				Failures:    d.Int64(),
				MeanCompute: time.Duration(d.Int64()),
				MeanWait:    time.Duration(d.Int64()),
				MeanBytes:   d.Int64(),
			})
		}
		return out, nil
	})
}
