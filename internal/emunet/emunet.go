// Package emunet emulates LAN/WAN network conditions over real
// connections, so multi-client Ninf benchmarks can run on one machine
// while exhibiting the paper's bandwidth behaviour: per-link capacity,
// propagation latency, and — critically for §4.2.2 — *shared* access
// links, where every client at a site contends for the same capacity.
//
// A Link is a token bucket shared by any number of connections.
// Traffic is shaped in MTU-sized chunks, so concurrent streams
// crossing the same link converge to fair shares of its capacity,
// reproducing the single-site WAN saturation the paper measured
// (0.17 MB/s Ocha-U↔ETL split among c clients).
//
// A link's long-run rate never exceeds its capacity: over any interval
// it carries at most capacity × interval plus one bucket, and a bucket
// is 2 ms of traffic at the link's rate (two chunks, 16 KiB, on links
// at or below about 8 MB/s).
package emunet

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultChunk is the shaping granularity in bytes: concurrent streams
// on a link take turns a chunk at a time, so it sets how fairly they
// share (smaller is fairer, at more overhead). It does not set the
// bucket depth; timerFloor does. 8 KiB keeps the token-bucket mutex
// cool while still interleaving well below typical frame sizes.
const DefaultChunk = 8 << 10

// timerFloor is the shortest sleep the pacer relies on the OS to keep:
// a sub-millisecond time.Sleep commonly lasts a millisecond or more. A
// bucket holds at least this long of traffic, so the credit a sender
// earns while oversleeping is kept instead of spilling over the top.
const timerFloor = 2 * time.Millisecond

// depth is the bucket depth for a link of the given rate: timerFloor's
// worth of bytes, and never less than two chunks.
func depth(rate float64) float64 {
	return max(2*DefaultChunk, rate*timerFloor.Seconds())
}

// A Link models one network segment with finite capacity. All
// connections routed over the link share its bandwidth.
type Link struct {
	name string

	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bucket depth in bytes
	tokens float64
	last   time.Time
}

// NewLink creates a link with the given capacity in bytes/second. Its
// bucket starts full, so the first depth(bytesPerSec) bytes pass
// without delay.
func NewLink(name string, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("emunet: link %q needs positive capacity", name))
	}
	d := depth(bytesPerSec)
	return &Link{
		name:   name,
		rate:   bytesPerSec,
		burst:  d,
		tokens: d,
		last:   time.Now(),
	}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// Rate returns the configured capacity in bytes/second.
func (l *Link) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// SetRate changes the capacity, e.g. to emulate congestion changes.
// The bucket depth follows the new rate; credit above it is dropped.
func (l *Link) SetRate(bytesPerSec float64) {
	if bytesPerSec <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill(time.Now())
	l.rate = bytesPerSec
	l.burst = depth(bytesPerSec)
	l.tokens = min(l.tokens, l.burst)
}

// refill adds tokens for elapsed time. Callers hold mu.
func (l *Link) refill(now time.Time) {
	dt := now.Sub(l.last).Seconds()
	if dt > 0 {
		l.tokens += dt * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = now
	}
}

// acquire charges n bytes against the bucket and sleeps off any
// resulting debt. Tokens may go negative: the sender pays up front and
// waits until the debt would have drained at the link rate. The next
// refill credits the real elapsed time, oversleep included, but only up
// to the bucket depth: a sleep that overruns its target by more than
// timerFloor loses the excess, and the link runs below its rate.
// Concurrent acquirers interleave chunk by chunk, yielding approximate
// fair sharing.
func (l *Link) acquire(n int) {
	l.mu.Lock()
	l.refill(time.Now())
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// Options configure shaping for one connection direction pair.
type Options struct {
	// Up are the links crossed by data written on the wrapped conn
	// (client→server when wrapping the client side).
	Up []*Link
	// Down are the links crossed by data read from the wrapped conn.
	Down []*Link
	// Latency is the one-way propagation delay, charged once per
	// message burst in each direction.
	Latency time.Duration
	// Chunk overrides the shaping granularity (default DefaultChunk).
	Chunk int
}

// Conn is a traffic-shaped connection.
type Conn struct {
	net.Conn
	opts Options

	wMu       sync.Mutex
	lastWrite time.Time
	rMu       sync.Mutex
	lastRead  time.Time
}

// Wrap shapes an existing connection.
func Wrap(c net.Conn, opts Options) *Conn {
	if opts.Chunk <= 0 {
		opts.Chunk = DefaultChunk
	}
	return &Conn{Conn: c, opts: opts}
}

// Dialer shapes every connection produced by dial.
func Dialer(dial func() (net.Conn, error), opts Options) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return Wrap(c, opts), nil
	}
}

// idleGap is the silence after which the next transfer is charged a
// fresh propagation latency: it separates "messages" on a stream.
const idleGap = 2 * time.Millisecond

// Write shapes outgoing data through the up links.
func (c *Conn) Write(p []byte) (int, error) {
	c.wMu.Lock()
	defer c.wMu.Unlock()
	if c.opts.Latency > 0 {
		now := time.Now()
		if now.Sub(c.lastWrite) > idleGap {
			time.Sleep(c.opts.Latency)
		}
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > c.opts.Chunk {
			n = c.opts.Chunk
		}
		for _, l := range c.opts.Up {
			l.acquire(n)
		}
		// c.wMu models the emulated link's serialization point; chunked writes must not interleave.
		w, err := c.Conn.Write(p[:n])
		total += w
		if err != nil {
			c.lastWrite = time.Now()
			return total, err
		}
		p = p[n:]
	}
	c.lastWrite = time.Now()
	return total, nil
}

// Read shapes incoming data through the down links. Shaping at the
// receiver models the far end's constrained sending rate: TCP flow
// control (or the pipe's synchrony) pushes the backpressure to the
// sender.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) > c.opts.Chunk {
		p = p[:c.opts.Chunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rMu.Lock()
		if c.opts.Latency > 0 {
			now := time.Now()
			if now.Sub(c.lastRead) > idleGap {
				time.Sleep(c.opts.Latency)
			}
		}
		for _, l := range c.opts.Down {
			l.acquire(n)
		}
		c.lastRead = time.Now()
		c.rMu.Unlock()
	}
	return n, err
}

// Pipe returns an in-memory shaped connection pair: data written on a
// is shaped by opts.Up before b reads it, and data written on b is
// shaped by opts.Down before a reads it. The pair shares the links, so
// several pipes over the same Options contend like clients on a LAN.
func Pipe(opts Options) (a, b net.Conn) {
	ca, cb := net.Pipe()
	up := Wrap(ca, Options{Up: opts.Up, Latency: opts.Latency, Chunk: opts.Chunk})
	down := Wrap(cb, Options{Up: opts.Down, Latency: opts.Latency, Chunk: opts.Chunk})
	return up, down
}
