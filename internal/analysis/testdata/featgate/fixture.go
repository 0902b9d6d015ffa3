// Fixture for the featgate pass: construction/send of feature-gated
// messages must be dominated by a negotiated-level check. The protocol
// subpackage defines the roots (exempt at home); the wrap subpackage
// proves the gate obligation crosses package boundaries via facts.
package fixture

import (
	"fixture/featgate/protocol"
	"fixture/featgate/wrap"
)

type Sess struct{ level int }

// Bulk is the session's capability accessor.
func (s *Sess) Bulk() bool { return s.level >= protocol.MuxVersionBulk }

// Positive: ungated root call.
func badUngated(n int) error {
	m, err := protocol.EncodeCallRequestChunks(n) // want `EncodeCallRequestChunks requires negotiated feature level "bulk" but no gate`
	_ = m
	return err
}

// Positive: a bulk shape built before anything was negotiated; the
// zero Shape needs no gate.
func badUngatedShape(n int) (protocol.Shape, protocol.Shape) {
	return protocol.Shape{}, protocol.BulkShape(n) // want `BulkShape requires negotiated feature level "bulk" but no gate`
}

// Negative: dominated by the capability accessor.
func goodGated(s *Sess, n int) error {
	if s.Bulk() {
		m, err := protocol.EncodeCallRequestChunks(n)
		_ = m
		return err
	}
	return nil
}

// Negative: gate variable plus the early-return form — once the !gate
// branch returns, the remainder of the body is gated.
func goodEarlyReturn(version, n int) error {
	bulkOK := version >= protocol.MuxVersionBulk
	if !bulkOK {
		return nil
	}
	m, err := protocol.EncodeCallRequestChunks(n)
	_ = m
	return err
}

// Negative: receive-side constant uses classify incoming frames, they
// do not construct outgoing ones.
func goodReceive(t protocol.MsgType) string {
	if t == protocol.MsgBulkAbort {
		return "abort"
	}
	switch t {
	case protocol.MsgBulkBegin, protocol.MsgBulkChunk:
		return "bulk"
	}
	return "other"
}

// Positive: construction-side constant use without a gate.
func badConstSend() error {
	return protocol.WriteMsg(protocol.MsgBulkBegin, nil) // want `MsgBulkBegin requires negotiated feature level "bulk" but no gate`
}

// Negative: the same send under a version comparison.
func goodConstSendGated(version int) error {
	if version >= protocol.MuxVersionBulk {
		return protocol.WriteMsg(protocol.MsgBulkBegin, nil)
	}
	return nil
}

// encodeReq is the in-package transparent-fallback shape: ungated here,
// every in-package call site gated — the gate lives one hop up.
func encodeReq(n int) (*protocol.BulkMsg, error) {
	return protocol.EncodeCallRequestChunks(n)
}

// goodFallbackCaller is encodeReq's (only) call site, dominated.
func goodFallbackCaller(s *Sess, n int) error {
	if s.Bulk() {
		m, err := encodeReq(n)
		_ = m
		return err
	}
	return nil
}

// Positive: wrap.EncodeReq was discharged inside its package but
// published as gate-requiring; an ungated cross-package call inherits
// the obligation through the fact store.
func badCrossPkg(c *wrap.Conn, n int) error {
	m, err := wrap.EncodeReq(c, n) // want `EncodeReq requires negotiated feature level "bulk" but no gate`
	_ = m
	return err
}

// Negative: the cross-package obligation met at this caller.
func goodCrossPkg(c *wrap.Conn, n int) error {
	if c.Bulk() {
		m, err := wrap.EncodeReq(c, n)
		_ = m
		return err
	}
	return nil
}

// Negative: suppressed deliberate ungated use.
func suppressed(n int) error {
	//lint:ninflint featgate — fixture exercises the suppression syntax
	m, err := protocol.EncodeCallRequestChunks(n)
	_ = m
	return err
}

// Cache is the level-4 capability accessor.
func (s *Sess) Cache() bool { return s.level >= protocol.MuxVersionCache }

// Positive: digest framing built with no level-4 gate.
func badUngatedDigest(digs []protocol.Digest) error {
	return protocol.WriteMsg(protocol.MsgCallDigest, protocol.EncodeDigestQueryBuf(digs).B()) // want `MsgCallDigest requires negotiated feature level "cache" but no gate` `EncodeDigestQueryBuf requires negotiated feature level "cache" but no gate`
}

// Negative: dominated by the level-4 capability accessor. A cache gate
// also discharges bulk obligations — level 4 implies level 3.
func goodGatedDigest(s *Sess, n int, digs []protocol.Digest) error {
	if s.Cache() {
		if err := protocol.WriteMsg(protocol.MsgCallDigest, protocol.EncodeDigestQueryBuf(digs).B()); err != nil {
			return err
		}
		m, _, err := protocol.EncodeCallRequestDigest(n, digs)
		_ = m
		return err
	}
	return nil
}

// Negative: cacheok gate variable with the early-return form.
func goodCacheEarlyReturn(version int, digs []protocol.Digest) error {
	cacheok := version >= protocol.MuxVersionCache
	if !cacheok {
		return nil
	}
	return protocol.WriteMsg(protocol.MsgDataHandle, protocol.EncodeDigestQueryBuf(digs).B())
}

// Positive: a bulk-only gate does not license level-4 framing.
func badBulkGateOnly(s *Sess, digs []protocol.Digest) error {
	if s.Bulk() {
		return protocol.WriteMsg(protocol.MsgCallDigest, protocol.EncodeDigestQueryBuf(digs).B()) // want `MsgCallDigest requires negotiated feature level "cache" but no gate` `EncodeDigestQueryBuf requires negotiated feature level "cache" but no gate`
	}
	return nil
}

// Negative: receive-side classification of cache frames.
func goodCacheReceive(t protocol.MsgType) string {
	switch t {
	case protocol.MsgDigestStatus, protocol.MsgDataHandle:
		return "cache"
	}
	return "other"
}
