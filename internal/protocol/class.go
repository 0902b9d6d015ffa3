package protocol

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"syscall"
)

// A Class is what the outcome of one exchange says about the peer that
// ran it. Every retry, connection-reuse, breaker and re-placement
// decision reads it, through the methods below; DESIGN.md §7 "Failure
// classes" tabulates them.
type Class uint8

const (
	// ClassOK: the exchange succeeded.
	ClassOK Class = iota
	// ClassTransport: no answer came back — EOF, a reset, a refused
	// dial, a net.Error or a timeout. The request may never have
	// reached the peer.
	ClassTransport
	// ClassOverloaded: CodeOverloaded, the peer's "come back later".
	ClassOverloaded
	// ClassStale: CodeCacheMiss. Data the call named is no longer
	// resident; the call did not run and may be re-sent in full.
	ClassStale
	// ClassRefused: the peer will not run this request — unknown
	// routine or job, bad arguments, a job not ready.
	ClassRefused
	// ClassFailed: the call ran and failed (CodeExecFailed), the peer
	// failed internally, or a code this side does not know.
	ClassFailed
	// ClassLocal: the context ended, the client was closed, a decode
	// failed, or the error is not recognised.
	ClassLocal
)

// Classify reads err's class. A *RemoteError anywhere in the chain
// decides it by its code; the context's end is checked before the
// net.Error test, because context.DeadlineExceeded is a net.Error.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	var re *RemoteError
	if errors.As(err, &re) {
		switch re.Code {
		case CodeOverloaded:
			return ClassOverloaded
		case CodeCacheMiss:
			return ClassStale
		case CodeUnknownRoutine, CodeBadArguments, CodeUnknownJob, CodeNotReady:
			return ClassRefused
		}
		return ClassFailed
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassLocal
	}
	var ne net.Error
	if errors.As(err, &ne) || slices.ContainsFunc(transportFaults, func(f error) bool { return errors.Is(err, f) }) {
		return ClassTransport
	}
	return ClassLocal
}

// transportFaults are the errors of a connection that carried no
// answer back, beside any net.Error.
var transportFaults = []error{io.EOF, io.ErrUnexpectedEOF, io.ErrClosedPipe, net.ErrClosed,
	syscall.ECONNRESET, syscall.ECONNREFUSED, syscall.EPIPE, syscall.ECONNABORTED, syscall.ETIMEDOUT}

// Retryable reports whether the same call may be tried again on the
// same server: no answer came back, or the server asked for the retry
// (overloaded: after its hint; stale: with the full bytes).
func (c Class) Retryable() bool {
	return c == ClassTransport || c == ClassOverloaded || c == ClassStale
}

// Answered reports whether the peer answered, with a reply or a
// MsgError, so the connection or session is still in frame sync.
func (c Class) Answered() bool { return c != ClassTransport && c != ClassLocal }

// Failure reports whether a scheduler counts the outcome against the
// server's breaker. An overload opens a placement-penalty window
// instead; a stale or refused answer proves the server alive.
func (c Class) Failure() bool { return c == ClassTransport || c == ClassFailed || c == ClassLocal }

// Excludes reports whether a transaction re-placing a failed call keeps
// it away from the server it failed on. A stale answer indicts the
// cached operands, not the server, so the server stays a candidate.
func (c Class) Excludes() bool { return c != ClassOK && c != ClassStale }

// RetryAfterMillis is the back-pressure hint an overload rejection in
// err carries, 0 for any other error.
func RetryAfterMillis(err error) uint32 {
	var re *RemoteError
	if errors.As(err, &re) && re.Code == CodeOverloaded {
		return re.RetryAfterMillis
	}
	return 0
}
