package ninf

import "ninf/internal/protocol"

// RoutineTrace is the per-routine execution history a server
// accumulates (§5.1's "server execution trace"): call counts, failure
// counts, and mean wait/compute/payload figures.
type RoutineTrace = protocol.RoutineTrace

// Trace fetches the server's execution history. Metaservers and
// schedulers use it to predict computation time for routines whose IDL
// declares no Complexity clause.
func (c *Client) Trace() ([]RoutineTrace, error) {
	fb, err := c.control(protocol.MsgTrace, protocol.MsgTraceOK)
	if err != nil {
		return nil, err
	}
	defer fb.Release()
	return protocol.DecodeTraces(fb.Payload())
}
