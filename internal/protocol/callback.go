package protocol

import "ninf/internal/xdr"

// Callback frames implement the §2.3 "client callback functions"
// facility: while a Ninf executable runs a blocking call, the server
// may invoke a function registered on the client — progress reporting,
// steering, pulling extra data — over the same connection. The client,
// which is waiting for MsgCallOK, answers MsgCallback frames inline
// and keeps waiting.
const (
	// MsgCallback is sent server→client during a blocking call.
	MsgCallback MsgType = iota + 96
	// MsgCallbackOK carries the client's reply payload.
	MsgCallbackOK
)

// CallbackRequest is the payload of MsgCallback: a callback name plus
// an opaque argument blob (the executable and the client agree on its
// format; numerical callbacks typically use XDR vectors).
type CallbackRequest struct {
	Name string
	Data []byte
}

// Encode serializes the request.
func (m *CallbackRequest) Encode() []byte {
	return encodePayload(xdr.SizeString(len(m.Name))+xdr.SizeOpaque(len(m.Data)), func(e *xdr.Encoder) {
		e.PutString(m.Name)
		e.PutOpaque(m.Data)
	})
}

// DecodeCallbackRequest parses a MsgCallback payload.
func DecodeCallbackRequest(p []byte) (CallbackRequest, error) {
	return decodePayload(p, func(d *xdr.Decoder) (CallbackRequest, error) {
		return CallbackRequest{Name: d.String(), Data: d.Opaque()}, nil
	})
}

// CallbackReply is the payload of MsgCallbackOK.
type CallbackReply struct {
	Data []byte
}

// Encode serializes the reply.
func (m *CallbackReply) Encode() []byte {
	return encodePayload(xdr.SizeOpaque(len(m.Data)), func(e *xdr.Encoder) {
		e.PutOpaque(m.Data)
	})
}

// DecodeCallbackReply parses a MsgCallbackOK payload.
func DecodeCallbackReply(p []byte) (CallbackReply, error) {
	return decodePayload(p, func(d *xdr.Decoder) (CallbackReply, error) {
		return CallbackReply{Data: d.Opaque()}, nil
	})
}
