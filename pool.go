package ninf

import (
	"errors"
	"net"
	"sync"
	"time"
)

// DefaultPoolSize is the number of idle connections a Client retains
// between lockstep exchanges (tunable via SetPoolSize).
const DefaultPoolSize = 4

// connPool supplies every connection a client uses: one per lockstep
// exchange in flight, and the one each multiplexed session lives on. It
// keeps a bounded stack of idle connections so exchanges reuse
// established connections instead of paying a fresh TCP (and, on a
// WAN, a full round-trip) per call — the per-call connection setup the
// paper's Figure 9/10 WAN numbers are dominated by. Checkout
// health-checks the connection; broken or surplus connections are
// closed, never reused.
type connPool struct {
	dial func() (net.Conn, error)

	mu      sync.Mutex
	idle    []net.Conn
	active  map[net.Conn]struct{} // checked out, exchange in flight
	maxIdle int
	closed  bool
}

func newConnPool(dial func() (net.Conn, error), maxIdle int) *connPool {
	return &connPool{dial: dial, maxIdle: maxIdle, active: make(map[net.Conn]struct{})}
}

// setMaxIdle adjusts the idle bound, closing surplus connections.
func (p *connPool) setMaxIdle(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	p.maxIdle = n
	var surplus []net.Conn
	for len(p.idle) > n {
		last := len(p.idle) - 1
		surplus = append(surplus, p.idle[last])
		p.idle = p.idle[:last]
	}
	p.mu.Unlock()
	for _, c := range surplus {
		c.Close()
	}
}

// get returns a healthy idle connection or dials a new one. Checked-
// out connections are tracked so closeAll can sever in-flight
// exchanges instead of leaving them hung on a dead server.
func (p *connPool) get() (net.Conn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errClientClosed
		}
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			conn, err := p.dial()
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				conn.Close()
				return nil, errClientClosed
			}
			p.active[conn] = struct{}{}
			p.mu.Unlock()
			return conn, nil
		}
		conn := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if !connAlive(conn) {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return nil, errClientClosed
		}
		p.active[conn] = struct{}{}
		p.mu.Unlock()
		return conn, nil
	}
}

// put returns a connection to the idle set, closing it when the pool
// is full or closed. Only connections with no in-flight frames may be
// returned.
func (p *connPool) put(conn net.Conn) {
	p.mu.Lock()
	delete(p.active, conn)
	if p.closed || len(p.idle) >= p.maxIdle {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle = append(p.idle, conn)
	p.mu.Unlock()
}

// discard drops a checked-out connection that must not be reused
// (I/O error, frame desync) and closes it.
func (p *connPool) discard(conn net.Conn) {
	p.mu.Lock()
	delete(p.active, conn)
	p.mu.Unlock()
	conn.Close()
}

// closeAll shuts the pool down: subsequent gets fail, idle connections
// are closed, and checked-out connections are severed so exchanges
// blocked on them return promptly with a connection error.
func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	act := make([]net.Conn, 0, len(p.active))
	for c := range p.active {
		act = append(act, c)
	}
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	for _, c := range act {
		c.Close()
	}
}

// isClosed reports whether closeAll ran.
func (p *connPool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// probeTimeout bounds the fallback read probe. It must be positive:
// with an already-expired deadline Go's poller fails the read before
// looking at the socket, so a zero deadline would never see a pending
// EOF.
const probeTimeout = 500 * time.Microsecond

// connAlive probes an idle connection before reuse. TCP connections
// are peeked without blocking; wrapped connections fall back to a
// short-deadline read, where a healthy idle stream times out, a closed
// one reports EOF, and unsolicited data means the stream is out of
// sync. Dialers whose connections support neither skip the probe.
func connAlive(conn net.Conn) bool {
	if alive, ok := rawConnAlive(conn); ok {
		return alive
	}
	if err := conn.SetReadDeadline(time.Now().Add(probeTimeout)); err != nil {
		return true
	}
	var probe [1]byte
	n, err := conn.Read(probe[:])
	if rerr := conn.SetReadDeadline(time.Time{}); rerr != nil {
		// The probe deadline could not be cleared: every subsequent
		// read on this connection would spuriously time out. Discard it.
		return false
	}
	if n > 0 {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
