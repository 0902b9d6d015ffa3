package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"ninf/internal/protocol"
)

// A CallbackInvoker lets a running Ninf executable call back into the
// client that issued the current blocking call (§2.3's "client
// callback functions"): progress reporting, computational steering, or
// pulling additional data mid-call. The payload format is private to
// the executable/callback pair.
type CallbackInvoker func(name string, data []byte) ([]byte, error)

type callbackKeyType struct{}

var callbackKey callbackKeyType

// CallbackFrom extracts the invoker from a handler's context. It is
// absent for two-phase (submit/fetch) executions, where no client
// connection exists while the job runs.
func CallbackFrom(ctx context.Context) (CallbackInvoker, bool) {
	inv, ok := ctx.Value(callbackKey).(CallbackInvoker)
	return inv, ok
}

// ErrNoCallback is returned by Callback when the execution has no
// client connection to call back on.
var ErrNoCallback = errors.New("server: no client callback channel (two-phase job?)")

// Callback is the convenience form of CallbackFrom: it invokes the
// named client callback or fails with ErrNoCallback.
func Callback(ctx context.Context, name string, data []byte) ([]byte, error) {
	inv, ok := CallbackFrom(ctx)
	if !ok {
		return nil, ErrNoCallback
	}
	return inv(name, data)
}

// connInvoker builds the invoker bound to a blocking call's
// connection. The connection is otherwise quiet while the executable
// runs — the serving goroutine runs the task — so the invoker may run
// its round trip on it directly. A mutex serializes invocations
// from executables that spawn internal goroutines. The client's
// MsgError answer comes back as the *protocol.RemoteError it is.
func (s *Server) connInvoker(conn net.Conn) CallbackInvoker {
	var mu sync.Mutex
	return func(name string, data []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		req := protocol.CallbackRequest{Name: name, Data: data}
		// mu intentionally serializes callback round trips from concurrent executable goroutines on one conn.
		typ, fb, err := protocol.Roundtrip(conn, protocol.MsgCallback, protocol.BufferFor(req.Encode()), s.cfg.MaxPayload)
		if err != nil {
			if protocol.Classify(err).Answered() {
				return nil, err
			}
			return nil, fmt.Errorf("server: callback %s: %w", name, err)
		}
		defer fb.Release()
		if typ != protocol.MsgCallbackOK {
			return nil, fmt.Errorf("server: callback %s: unexpected reply %v", name, typ)
		}
		reply, err := protocol.DecodeCallbackReply(fb.Payload())
		return reply.Data, err
	}
}
