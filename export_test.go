package ninf

import "context"

// Hooks for the package's external tests; not part of the API.

// PinSessions holds c to at most n multiplexed sessions (0: the default,
// GOMAXPROCS). Tests that assert on one session's behaviour — and the
// mux1 reference mode of BenchmarkMuxVsLockstep — pin it to one.
func (c *Client) PinSessions(n int) {
	c.sess.mu.Lock()
	c.sess.max = n
	c.sess.mu.Unlock()
}

// Sessions reports how many live multiplexed sessions c holds.
func (c *Client) Sessions() int {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	n := 0
	for _, l := range c.sess.live {
		if !l.sess.Broken() {
			n++
		}
	}
	return n
}

// SetMaxPayload bounds reply frame payloads (default 1 GiB). The limit
// is read without a lock, so set it before c's first exchange.
func (c *Client) SetMaxPayload(n int) { c.maxPayload = n }

// PickSession runs the per-exchange session choice of a data verb and
// reports whether it chose a session.
func (c *Client) PickSession(ctx context.Context) (bool, error) {
	s, err := c.session(ctx, true)
	return s != nil, err
}
