package faultnet

import (
	"net"
	"sync"
	"time"
)

// A Daemon serves every connection accepted on a TCP listener with a
// serve function and can be killed the way a crashed process
// disappears: Kill closes the listener and severs every live
// connection. It never stops what serve runs on, so a killed server
// writes none of the records an orderly shutdown would.
type Daemon struct {
	Addr string // the address it listens on

	l     net.Listener
	mu    sync.Mutex
	conns map[net.Conn]bool
	dead  bool
}

// StartDaemon listens on addr and serves each connection with serve on
// its own goroutine. A killed daemon's port can take a moment to come
// free, so a failed listen is retried for up to 5 s: a new incarnation
// re-binds the address of the one it replaces.
func StartDaemon(addr string, serve func(net.Conn)) (*Daemon, error) {
	l, err := net.Listen("tcp", addr)
	for deadline := time.Now().Add(5 * time.Second); err != nil && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		l, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	d := &Daemon{Addr: l.Addr().String(), l: l, conns: make(map[net.Conn]bool)}
	go d.accept(serve)
	return d, nil
}

func (d *Daemon) accept(serve func(net.Conn)) {
	for {
		c, err := d.l.Accept()
		if err != nil {
			return
		}
		d.mu.Lock()
		if d.dead {
			// Accepted as Kill ran: it must not outlive the kill.
			d.mu.Unlock()
			c.Close()
			continue
		}
		d.conns[c] = true
		d.mu.Unlock()
		go func() {
			defer func() {
				c.Close()
				d.mu.Lock()
				delete(d.conns, c)
				d.mu.Unlock()
			}()
			serve(c)
		}()
	}
}

// Kill closes the listener and every live connection.
func (d *Daemon) Kill() {
	d.l.Close()
	d.mu.Lock()
	d.dead = true
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
}
