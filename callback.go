package ninf

import (
	"fmt"
	"net"
	"sync"

	"ninf/internal/protocol"
)

// A CallbackFunc is a client-side function a running Ninf executable
// may invoke during a blocking call (§2.3's "client callback
// functions"). The payload format is an agreement between the
// executable and the callback; return data travels back to the
// executable, and a returned error is surfaced there as a remote
// error.
type CallbackFunc func(data []byte) ([]byte, error)

// callbackRegistry is embedded in Client.
type callbackRegistry struct {
	mu  sync.RWMutex
	fns map[string]CallbackFunc
}

// RegisterCallback makes fn invokable by server executables under the
// given name during this client's blocking calls. Passing nil removes
// the registration. Callbacks need the quiet parked stream of a
// lockstep call, so registering one retires any live multiplexed
// session and keeps every exchange on pooled lockstep connections until
// all callbacks are removed (see session.go).
func (c *Client) RegisterCallback(name string, fn CallbackFunc) {
	c.cb.mu.Lock()
	if c.cb.fns == nil {
		c.cb.fns = make(map[string]CallbackFunc)
	}
	if fn == nil {
		delete(c.cb.fns, name)
	} else {
		c.cb.fns[name] = fn
	}
	registered := len(c.cb.fns) > 0
	c.cb.mu.Unlock()
	if registered {
		c.retire(nil)
	}
}

func (c *Client) lookupCallback(name string) CallbackFunc {
	c.cb.mu.RLock()
	defer c.cb.mu.RUnlock()
	return c.cb.fns[name]
}

// answerCallback serves one MsgCallback frame read in the middle of a
// lockstep exchange, consuming it: it runs the registered function,
// sends the answer on the same connection and returns the frame that
// follows — the call's reply or its next callback. Unknown names and
// function errors are reported to the server as MsgError; the call
// itself keeps waiting.
func (c *Client) answerCallback(conn net.Conn, fb *protocol.Buffer) (protocol.MsgType, *protocol.Buffer, error) {
	req, err := protocol.DecodeCallbackRequest(fb.Payload())
	fb.Release()
	if err != nil {
		return 0, nil, err
	}
	fn := c.lookupCallback(req.Name)
	if fn == nil {
		return protocol.Roundtrip(conn, protocol.MsgError, protocol.BufferFor(protocol.EncodeErrorReply(
			protocol.CodeUnknownRoutine, fmt.Sprintf("no client callback %q", req.Name), 0)), c.maxPayload)
	}
	data, err := fn(req.Data)
	if err != nil {
		return protocol.Roundtrip(conn, protocol.MsgError, protocol.BufferFor(protocol.EncodeErrorReply(
			protocol.CodeExecFailed, err.Error(), 0)), c.maxPayload)
	}
	reply := protocol.CallbackReply{Data: data}
	return protocol.Roundtrip(conn, protocol.MsgCallbackOK, protocol.BufferFor(reply.Encode()), c.maxPayload)
}
