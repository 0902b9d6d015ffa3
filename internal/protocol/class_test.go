package protocol

import (
	"context"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
)

// timeoutErr is a timeout net.Error, as a read past its deadline
// returns.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "injected i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestErrClassTable pins the failure-class table (DESIGN.md §7
// "Failure classes"): the class of every error code, of each transport
// fault the root package's TestErrClassBoundaries injects, of the
// context's end and of nil — each also wrapped once — and the four
// decisions each class makes.
func TestErrClassTable(t *testing.T) {
	type decisions struct{ retry, answered, failure, excludes bool }
	table := map[Class]decisions{
		ClassOK:         {retry: false, answered: true, failure: false, excludes: false},
		ClassTransport:  {retry: true, answered: false, failure: true, excludes: true},
		ClassOverloaded: {retry: true, answered: true, failure: false, excludes: true},
		ClassStale:      {retry: true, answered: true, failure: false, excludes: false},
		ClassRefused:    {retry: false, answered: true, failure: false, excludes: true},
		ClassFailed:     {retry: false, answered: true, failure: true, excludes: true},
		ClassLocal:      {retry: false, answered: false, failure: true, excludes: true},
	}
	remote := func(code uint32) error { return &RemoteError{Code: code, Detail: "x"} }
	cases := []struct {
		err  error
		want Class
	}{
		{remote(CodeUnknownRoutine), ClassRefused},
		{remote(CodeBadArguments), ClassRefused},
		{remote(CodeExecFailed), ClassFailed},
		{remote(CodeOverloaded), ClassOverloaded},
		{remote(CodeUnknownJob), ClassRefused},
		{remote(CodeNotReady), ClassRefused},
		{remote(CodeInternal), ClassFailed},
		{remote(CodeCacheMiss), ClassStale},
		{remote(99), ClassFailed},
		{io.ErrUnexpectedEOF, ClassTransport},
		{syscall.ECONNRESET, ClassTransport},
		{net.ErrClosed, ClassTransport},
		{timeoutErr{}, ClassTransport},
		{context.DeadlineExceeded, ClassLocal}, // a net.Error, but the caller's end
		{context.Canceled, ClassLocal},
	}
	check := func(err error, want Class) {
		t.Helper()
		c := Classify(err)
		if c != want {
			t.Errorf("Classify(%v) = %v, want %v", err, c, want)
			return
		}
		d := table[c]
		if c.Retryable() != d.retry || c.Answered() != d.answered ||
			c.Failure() != d.failure || c.Excludes() != d.excludes {
			t.Errorf("%v (%v): retry %t answered %t failure %t excludes %t, want %+v",
				err, c, c.Retryable(), c.Answered(), c.Failure(), c.Excludes(), d)
		}
	}
	check(nil, ClassOK)
	for _, tc := range cases {
		check(tc.err, tc.want)
		check(fmt.Errorf("exchange: %w", tc.err), tc.want)
	}
	if n := testing.AllocsPerRun(100, func() { Classify(nil) }); n != 0 {
		t.Errorf("Classify(nil) allocates %v times", n)
	}
}

func TestRetryAfterMillis(t *testing.T) {
	over := &RemoteError{Code: CodeOverloaded, RetryAfterMillis: 70}
	if got := RetryAfterMillis(fmt.Errorf("call: %w", over)); got != 70 {
		t.Errorf("wrapped overload hint = %d, want 70", got)
	}
	if got := RetryAfterMillis(&RemoteError{Code: CodeExecFailed, RetryAfterMillis: 70}); got != 0 {
		t.Errorf("hint of a non-overload error = %d, want 0", got)
	}
}
