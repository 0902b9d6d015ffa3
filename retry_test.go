package ninf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"ninf/internal/protocol"
)

func TestRetryableClassification(t *testing.T) {
	opErr := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	var timeoutErr net.Error = &net.OpError{Op: "read", Net: "tcp", Err: &timeoutError{}}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"closed-pipe", io.ErrClosedPipe, true},
		{"net-closed", net.ErrClosed, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"wrapped-reset", fmt.Errorf("protocol: read header: %w", syscall.ECONNRESET), true},
		{"dial-refused", opErr, true},
		{"io-timeout", timeoutErr, true},
		{"remote-error", &protocol.RemoteError{Code: 1, Detail: "no such routine"}, false},
		{"wrapped-remote", fmt.Errorf("call: %w", &protocol.RemoteError{Code: 1, Detail: "x"}), false},
		{"ctx-canceled", context.Canceled, false},
		{"ctx-deadline", context.DeadlineExceeded, false},
		{"client-closed", ErrClientClosed, false},
		{"unknown", errors.New("some local bug"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryableOverloaded is the regression for the overload-control
// bugfix: CodeOverloaded is the one RemoteError the transport MAY
// retry — the server said "come back later", not "this cannot work".
// Every other remote code stays non-retryable.
func TestRetryableOverloaded(t *testing.T) {
	over := &protocol.RemoteError{Code: protocol.CodeOverloaded, Detail: "queue full", RetryAfterMillis: 50}
	if !Retryable(over) {
		t.Error("Retryable(CodeOverloaded) = false; overload rejections must invite retry")
	}
	if !Retryable(fmt.Errorf("call: %w", over)) {
		t.Error("wrapped overload rejection classified non-retryable")
	}
	for _, code := range []uint32{protocol.CodeUnknownRoutine, protocol.CodeBadArguments,
		protocol.CodeExecFailed, protocol.CodeInternal, protocol.CodeNotReady, protocol.CodeUnknownJob} {
		if Retryable(&protocol.RemoteError{Code: code}) {
			t.Errorf("Retryable(code %d) = true; only CodeOverloaded may retry", code)
		}
	}
}

func TestOverloadHint(t *testing.T) {
	if d, ok := overloadHint(&protocol.RemoteError{Code: protocol.CodeOverloaded, RetryAfterMillis: 120}); !ok || d != 120*time.Millisecond {
		t.Errorf("hint = %v, %v", d, ok)
	}
	// The cap defends against corrupt or hostile hints.
	if d, _ := overloadHint(&protocol.RemoteError{Code: protocol.CodeOverloaded, RetryAfterMillis: 600_000}); d != 5*time.Second {
		t.Errorf("uncapped hint: %v", d)
	}
	if _, ok := overloadHint(&protocol.RemoteError{Code: protocol.CodeOverloaded}); ok {
		t.Error("zero hint reported as present")
	}
	if _, ok := overloadHint(&protocol.RemoteError{Code: protocol.CodeExecFailed, RetryAfterMillis: 120}); ok {
		t.Error("hint extracted from a non-overload error")
	}
	if _, ok := overloadHint(io.EOF); ok {
		t.Error("hint extracted from a transport error")
	}
}

func TestRetryBudgetTake(t *testing.T) {
	now := time.Now()
	var b retryBudget
	b.configure(RetryBudget{Burst: 2, Rate: 0}, now)
	if !b.take(now) || !b.take(now) {
		t.Fatal("budget refused a retry within its burst")
	}
	if b.take(now) {
		t.Fatal("budget granted a retry beyond its non-replenishing burst")
	}

	// A positive rate refills tokens with time.
	b.configure(RetryBudget{Burst: 1, Rate: 10}, now)
	if !b.take(now) {
		t.Fatal("fresh budget empty")
	}
	if b.take(now) {
		t.Fatal("drained budget granted a retry with no time elapsed")
	}
	if !b.take(now.Add(150 * time.Millisecond)) {
		t.Error("budget did not refill at its rate")
	}
}

// timeoutError is a minimal net.Error with Timeout()==true, the shape
// a deadline-severed read produces.
type timeoutError struct{}

func (*timeoutError) Error() string   { return "i/o timeout" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return false }

func TestRetryPolicyDelayBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	for k := 1; k <= 8; k++ {
		window := p.BaseDelay << uint(k-1)
		if window > p.MaxDelay {
			window = p.MaxDelay
		}
		for i := 0; i < 100; i++ {
			d := p.delay(k)
			if d < 0 || d >= window {
				t.Fatalf("delay(%d) = %v outside [0, %v)", k, d, window)
			}
		}
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p != DefaultRetryPolicy {
		t.Errorf("zero policy defaults to %+v, want %+v", p, DefaultRetryPolicy)
	}
	// NoRetry keeps MaxAttempts == 1 through a client's SetRetryPolicy.
	c := &Client{retry: DefaultRetryPolicy}
	c.SetRetryPolicy(NoRetry)
	if got := c.Retry().MaxAttempts; got != 1 {
		t.Errorf("NoRetry via SetRetryPolicy: MaxAttempts = %d, want 1", got)
	}
}

func TestBackoffHonorsContext(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.backoff(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("backoff under expired ctx: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("backoff ignored context for %v", elapsed)
	}
}

func TestRetryErrorUnwraps(t *testing.T) {
	inner := &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	err := error(&RetryError{Op: "call dmmul", Attempts: 4, Err: inner})
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("RetryError does not unwrap to the final attempt's cause: %v", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 4 {
		t.Errorf("errors.As(*RetryError) failed on %v", err)
	}
}

func TestGuardConnSeversOnCancel(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	stop := guardConn(ctx, a)
	defer stop()
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := a.Read(buf) // black hole: peer never writes
		readErr <- err
	}()
	cancel()
	select {
	case err := <-readErr:
		if err == nil {
			t.Error("read returned nil after guard severed the conn")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("guardConn did not sever a blocked read on cancel")
	}
}

// TestPlacementBackoffBounded: the wait before re-asking the scheduler
// stays in its window however many attempts a transaction is allowed;
// an unclamped shift overflows into a negative window and panics.
func TestPlacementBackoffBounded(t *testing.T) {
	for k := 0; k <= 100; k++ {
		if d := placementBackoff(k); d < 12500*time.Microsecond || d >= 500*time.Millisecond {
			t.Errorf("placementBackoff(%d) = %v, want in [12.5ms, 500ms)", k, d)
		}
	}
}
