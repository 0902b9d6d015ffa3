// Package faultnet injects reproducible network faults under a Ninf
// data plane, so resilience — retry, backoff, circuit breaking,
// metaserver failover — can be proven by test rather than asserted.
// The paper's transaction blocks (§2.4, §5) re-execute Ninf_calls on
// alternate servers when one dies; this package supplies the dying.
//
// An Injector wraps a dialer (and therefore composes with
// internal/emunet's traffic shaping: wrap the shaped dialer, or shape
// the faulty one). Every connection it produces draws a private fault
// schedule from the plan's seed at dial time: after how many I/O
// operations it resets, stalls, or cuts a write mid-frame. Because the
// schedule is fixed per connection (keyed by the connection's dial
// sequence number), a run is reproducible regardless of goroutine
// interleaving: connection k always misbehaves the same way.
//
// Faults injected:
//
//   - dial failure: the dialer returns ECONNREFUSED without connecting
//   - connection reset: a read or write fails with ECONNRESET and the
//     underlying connection is closed
//   - partial write: a write delivers a prefix of the frame, then
//     resets — the mid-transfer failure of §5's fault model
//   - stall (black hole): a read or write blocks for StallDuration (or
//     until the connection is closed), then times out — the failure
//     mode deadlines and circuit breakers exist for
//   - partition: all future dials fail and every live connection is
//     reset, until Heal
//
// Counters report exactly what was injected, so chaos tests can assert
// the faults actually happened rather than passing vacuously. A Daemon
// supplies the other end's crash: a listener whose serving dies with
// every live connection at once, the way a killed process's does.
package faultnet

import (
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Plan is a reproducible fault plan. Probabilities are per I/O
// operation (one Read or Write call); each connection converts them
// into fixed "fault after N operations" schedules at dial time using
// the plan's seed, so the same seed yields the same behavior for the
// same connection sequence. The zero value injects nothing.
type Plan struct {
	// Seed drives every random decision. Two injectors with equal
	// plans schedule identical faults for identical dial sequences.
	Seed int64

	// DialFailProb is the probability that a dial fails outright with
	// a connection-refused error.
	DialFailProb float64

	// ResetProb is the per-operation probability that a read or write
	// fails with a connection reset.
	ResetProb float64

	// PartialWriteProb is the per-operation probability that a write
	// delivers only a prefix of its buffer before resetting,
	// simulating a server death mid-frame.
	PartialWriteProb float64

	// StallProb is the per-operation probability that an operation
	// black-holes: it blocks for StallDuration (or until the
	// connection is closed), then fails with a timeout.
	StallProb float64

	// StallDuration bounds a stall (default 5s). Chaos tests use small
	// values so stalled calls fail fast into the retry path.
	StallDuration time.Duration

	// SafeOps exempts each connection's first SafeOps operations from
	// probabilistic faults, guaranteeing short control exchanges (an
	// interface fetch, a ping) can complete on a fresh connection.
	SafeOps int

	// Script is the plan's scheduled timeline: events fire when the
	// injector's dial counter reaches each event's trigger, which
	// keys the timeline to workload progress rather than wall-clock
	// time and so keeps it reproducible under any interleaving.
	Script []Event
}

// An Action is a scripted network event.
type Action int

// Scripted actions.
const (
	// ActPartition cuts the network as Injector.Partition does.
	ActPartition Action = iota
	// ActHeal restores dialing as Injector.Heal does.
	ActHeal
)

// An Event schedules one Action on the plan's timeline.
type Event struct {
	// AtDial fires the event when the injector sees its Nth dial
	// (1-based, before the dial is evaluated).
	AtDial uint64
	// Action is what happens.
	Action Action
}

// Counters reports what an Injector actually injected.
type Counters struct {
	Dials         uint64 // dial attempts seen
	DialFailures  uint64 // dials failed by the plan or a partition
	Resets        uint64 // reads/writes failed with ECONNRESET
	PartialWrites uint64 // writes cut mid-buffer before a reset
	Stalls        uint64 // operations black-holed
}

// Total is the number of injected faults of all kinds.
func (c Counters) Total() uint64 {
	return c.DialFailures + c.Resets + c.PartialWrites + c.Stalls
}

func (c Counters) String() string {
	return fmt.Sprintf("dials=%d dialfail=%d reset=%d partial=%d stall=%d",
		c.Dials, c.DialFailures, c.Resets, c.PartialWrites, c.Stalls)
}

// Injector produces faulty connections according to a Plan.
type Injector struct {
	plan Plan

	seq          atomic.Uint64 // dial sequence number
	dials        atomic.Uint64
	dialFailures atomic.Uint64
	resets       atomic.Uint64
	partials     atomic.Uint64
	stalls       atomic.Uint64

	mu          sync.Mutex
	partitioned bool
	live        map[*Conn]struct{}
	fired       []bool // which scripted events have fired
}

// New creates an injector for the plan.
func New(plan Plan) *Injector {
	if plan.StallDuration <= 0 {
		plan.StallDuration = 5 * time.Second
	}
	return &Injector{
		plan:  plan,
		live:  make(map[*Conn]struct{}),
		fired: make([]bool, len(plan.Script)),
	}
}

// errRefused is what an injected dial failure returns: shaped like a
// real refused TCP connection so error classification treats it as the
// genuine article.
func errRefused() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: os.NewSyscallError("connect", syscall.ECONNREFUSED)}
}

// errReset is an injected connection reset.
func errReset(op string) error {
	return &net.OpError{Op: op, Net: "tcp", Err: os.NewSyscallError(op, syscall.ECONNRESET)}
}

// stallError is the timeout an expired stall reports; it satisfies
// net.Error with Timeout() true, like a deadline-expired socket op.
type stallError struct{ op string }

func (e *stallError) Error() string   { return "faultnet: " + e.op + " stalled (injected black hole)" }
func (e *stallError) Timeout() bool   { return true }
func (e *stallError) Temporary() bool { return true }

// Dialer wraps dial so every produced connection follows the plan.
func (in *Injector) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		seq := in.seq.Add(1)
		in.dials.Add(1)
		in.runScript(seq)
		rng := newRand(in.plan.Seed, seq)
		in.mu.Lock()
		cut := in.partitioned
		in.mu.Unlock()
		if cut || rng.float64() < in.plan.DialFailProb {
			in.dialFailures.Add(1)
			return nil, errRefused()
		}
		raw, err := dial()
		if err != nil {
			return nil, err
		}
		c := &Conn{
			Conn:      raw,
			in:        in,
			closed:    make(chan struct{}),
			resetAt:   drawOp(rng, in.plan.ResetProb),
			stallAt:   drawOp(rng, in.plan.StallProb),
			partialAt: drawOp(rng, in.plan.PartialWriteProb),
			safe:      int64(in.plan.SafeOps),
		}
		in.mu.Lock()
		if in.partitioned { // partition raced the dial
			in.mu.Unlock()
			raw.Close()
			in.dialFailures.Add(1)
			return nil, errRefused()
		}
		in.live[c] = struct{}{}
		in.mu.Unlock()
		return c, nil
	}
}

// drawOp converts a per-operation fault probability into the 1-based
// index of the operation that faults, sampled geometrically; 0 means
// the connection never exhibits this fault.
func drawOp(r *splitmix, p float64) int64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// Inverse-CDF geometric sampling: first success at trial k with
	// P(k) = (1-p)^(k-1) p.
	u := r.float64()
	k := int64(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// runScript fires every scripted event whose trigger the dial counter
// has reached and that has not fired yet.
func (in *Injector) runScript(dialSeq uint64) {
	in.mu.Lock()
	var fire []Action
	for i, ev := range in.plan.Script {
		if ev.AtDial != 0 && dialSeq >= ev.AtDial && !in.fired[i] {
			in.fired[i] = true
			fire = append(fire, ev.Action)
		}
	}
	in.mu.Unlock()
	for _, a := range fire {
		switch a {
		case ActPartition:
			in.Partition()
		case ActHeal:
			in.Heal()
		}
	}
}

// Partition cuts the injector's network: every live connection is
// reset and all future dials fail until Heal. Use it to emulate a
// server crash or a WAN link cut.
func (in *Injector) Partition() {
	in.mu.Lock()
	in.partitioned = true
	conns := make([]*Conn, 0, len(in.live))
	for c := range in.live {
		conns = append(conns, c)
	}
	in.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Heal reopens the network after a Partition; existing connections
// stay dead, new dials proceed.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.partitioned = false
	in.mu.Unlock()
}

// Partitioned reports whether the injector is currently cut.
func (in *Injector) Partitioned() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.partitioned
}

// Counters snapshots the injected-fault counts.
func (in *Injector) Counters() Counters {
	return Counters{
		Dials:         in.dials.Load(),
		DialFailures:  in.dialFailures.Load(),
		Resets:        in.resets.Load(),
		PartialWrites: in.partials.Load(),
		Stalls:        in.stalls.Load(),
	}
}

func (in *Injector) drop(c *Conn) {
	in.mu.Lock()
	delete(in.live, c)
	in.mu.Unlock()
}

// Conn is a connection with a private fault schedule. Operations are
// counted across reads and writes; when the count reaches a scheduled
// fault the connection misbehaves and (for resets) dies.
type Conn struct {
	net.Conn
	in *Injector

	ops       atomic.Int64
	resetAt   int64
	stallAt   int64
	partialAt int64
	safe      int64

	closeOnce sync.Once
	closed    chan struct{}
	dead      atomic.Bool
}

// step advances the operation counter and returns the operation index
// just taken (1-based), or 0 while within the safe prefix.
func (c *Conn) step() int64 {
	n := c.ops.Add(1)
	if n <= c.safe {
		return 0
	}
	return n - c.safe
}

// due reports whether a scheduled fault (at) fires at operation n.
func due(n, at int64) bool { return at > 0 && n >= at }

// stall blocks for the plan's stall duration or until the connection
// is closed, then reports a timeout error.
func (c *Conn) stall(op string) error {
	c.in.stalls.Add(1)
	t := time.NewTimer(c.in.plan.StallDuration)
	defer t.Stop()
	select {
	case <-c.closed:
	case <-t.C:
	}
	return &stallError{op: op}
}

// reset kills the connection with an injected ECONNRESET.
func (c *Conn) reset(op string) error {
	c.in.resets.Add(1)
	c.dead.Store(true)
	c.Close()
	return errReset(op)
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, errReset("read")
	}
	n := c.step()
	switch {
	case due(n, c.stallAt) && !due(n, c.resetAt):
		return 0, c.stall("read")
	case due(n, c.resetAt):
		return 0, c.reset("read")
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, errReset("write")
	}
	n := c.step()
	switch {
	case due(n, c.partialAt) && !due(n, c.resetAt) && !due(n, c.stallAt):
		// Deliver a prefix, then die: the peer sees a truncated frame.
		c.in.partials.Add(1)
		cut := len(p) / 2
		if cut > 0 {
			c.Conn.Write(p[:cut])
		}
		c.dead.Store(true)
		c.Close()
		return cut, errReset("write")
	case due(n, c.stallAt) && !due(n, c.resetAt):
		return 0, c.stall("write")
	case due(n, c.resetAt):
		return 0, c.reset("write")
	}
	return c.Conn.Write(p)
}

// Close closes the underlying connection and wakes any stalled
// operation.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		c.in.drop(c)
		err = c.Conn.Close()
	})
	return err
}

// splitmix is a tiny deterministic PRNG (splitmix64), seeded from the
// plan seed and the connection sequence number; it avoids math/rand's
// global state so injectors never perturb each other.
type splitmix struct{ state uint64 }

func newRand(seed int64, seq uint64) *splitmix {
	// Mix seed and sequence so nearby seeds diverge immediately.
	s := uint64(seed) ^ (seq * 0x9e3779b97f4a7c15)
	return &splitmix{state: s}
}

func (r *splitmix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *splitmix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
