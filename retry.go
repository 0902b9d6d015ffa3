package ninf

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"ninf/internal/protocol"
)

// A RetryPolicy governs how the client retries Ninf_calls that fail
// with retryable (connection-level) errors: capped exponential backoff
// with full jitter. Every attempt re-acquires a fresh pooled request
// buffer and a fresh connection, so the data plane's ownership
// invariants hold on each retry, not just the first try.
//
// Retries apply only to errors Retryable classifies as transport
// faults. A *protocol.RemoteError means the server executed (or
// deliberately rejected) the call and is never retried at this layer;
// the metaserver's transaction failover handles rerouting those.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (default 4).
	// 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff unit before the first retry
	// (default 5ms). The k-th retry waits a uniformly random duration
	// in [0, min(MaxDelay, BaseDelay·2^(k-1))) — "full jitter", which
	// decorrelates clients hammering a recovering server.
	BaseDelay time.Duration
	// MaxDelay caps the backoff window (default 500ms).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy clients start with.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 500 * time.Millisecond}

// NoRetry disables client-level retries: every transport fault
// surfaces to the caller on the first occurrence.
var NoRetry = RetryPolicy{MaxAttempts: 1}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	return p
}

// delay returns the jittered backoff before retry k (1-based).
func (p RetryPolicy) delay(k int) time.Duration {
	window := p.BaseDelay
	for i := 1; i < k && window < p.MaxDelay; i++ {
		window *= 2
	}
	if window > p.MaxDelay {
		window = p.MaxDelay
	}
	if window <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(window))) // full jitter
}

// backoff sleeps the jittered delay for retry k, or returns early with
// the context's error.
func (p RetryPolicy) backoff(ctx context.Context, k int) error {
	d := p.delay(k)
	if d <= 0 {
		return ctx.Err()
	}
	return sleepCtx(ctx, d)
}

// sleepCtx sleeps d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// A RetryError reports a call that failed after exhausting its retry
// budget; Unwrap exposes the final attempt's error.
type RetryError struct {
	Op       string // the failing operation ("call", "submit", "fetch")
	Attempts int    // how many times it was tried
	Err      error  // the last attempt's error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("ninf: %s failed after %d attempts: %v", e.Op, e.Attempts, e.Err)
}

func (e *RetryError) Unwrap() error { return e.Err }

// Retryable classifies an error from a Ninf exchange: true means the
// failure is a transport fault (connection reset, dial failure,
// truncated frame, I/O timeout, severed connection) where the call may
// not have reached the server and trying again — on a fresh connection
// — is sound, an overload rejection (CodeOverloaded), where the server
// explicitly invites a later retry via its RetryAfterMillis hint, or a
// cache miss (CodeCacheMiss), where the call did not run and the retry
// re-uploads the evicted bytes. False means retrying cannot help or
// must not happen:
//
//   - any other *protocol.RemoteError: the server answered; it
//     executed the call or rejected it deliberately. Re-placement is
//     the scheduler's decision, not the transport's.
//   - context cancellation/expiry: the caller gave up.
//   - a closed client: ErrClientClosed ends the call.
//   - argument/marshalling errors: local bugs, deterministic.
//
// Unknown errors classify as non-retryable; the transport faults the
// data plane produces are all recognized shapes. It is the "retry same
// server" column of the failure-class table (protocol.Classify,
// DESIGN.md §7 "Failure classes").
func Retryable(err error) bool { return protocol.Classify(err).Retryable() }

// overloadHint extracts the server's retry-after back-pressure hint
// from an overload rejection, capped defensively at 5s so a corrupt or
// hostile hint cannot park a caller.
func overloadHint(err error) (time.Duration, bool) {
	d := min(time.Duration(protocol.RetryAfterMillis(err))*time.Millisecond, 5*time.Second)
	return d, d > 0
}

// A RetryBudget bounds retries across ALL calls on one client — a
// token bucket spent one token per retry (first attempts are free).
// Under a failure storm the bucket drains and every call degrades to
// first-try-only instead of amplifying offered load by MaxAttempts×,
// the classic retry-storm failure mode. The bucket refills at Rate
// tokens/second up to Burst.
type RetryBudget struct {
	// Burst is the maximum banked tokens (and the initial balance).
	Burst int
	// Rate is the refill rate in tokens per second. Zero with a
	// positive Burst means a fixed, non-replenishing allowance.
	Rate float64
}

// DefaultRetryBudget is generous enough that isolated faults — even a
// session reset failing a whole pipeline of concurrent calls at once —
// never feel it, while a sustained storm is clamped to ~Rate extra
// attempts per second. Overload experiments set tighter budgets
// explicitly via SetRetryBudget.
var DefaultRetryBudget = RetryBudget{Burst: 4096, Rate: 256}

// retryBudget is the mutable token-bucket state behind a RetryBudget.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	rate   float64
	last   time.Time
}

func (b *retryBudget) configure(cfg RetryBudget, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.burst = float64(cfg.Burst)
	b.rate = cfg.Rate
	b.tokens = b.burst
	b.last = now
}

// take spends one retry token; false means the budget is exhausted and
// the retry must not happen.
func (b *retryBudget) take(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 && b.rate > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// ErrClientClosed is returned by calls issued on (or interrupted by) a
// closed Client.
var ErrClientClosed = errClientClosed

// guardConn arranges for conn to be severed when ctx ends, bounding
// every blocking read/write of an exchange by the caller's deadline —
// including reads black-holed by a faulty network, which no write
// deadline would interrupt. The returned stop function disarms the
// guard; it must be called before the connection is pooled for reuse.
func guardConn(ctx context.Context, conn net.Conn) (stop func() bool) {
	if ctx == nil || ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, func() { conn.Close() })
}

// ctxErr folds a context's end into the attempt error so callers see
// the cause (context.DeadlineExceeded) rather than the symptom (a read
// on a deliberately severed connection). A nil err stays nil: the
// exchange completed.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil && err != nil {
		return fmt.Errorf("%w (%v)", cerr, err)
	}
	return err
}
