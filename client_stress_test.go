package ninf_test

import (
	"errors"
	"sync"
	"testing"

	"ninf"
	"ninf/internal/server"
)

// TestClientConcurrentStress hammers one shared Client with concurrent
// Call, CallAsync, and Submit/Fetch traffic. Run under -race it
// exercises the connection pool, the pooled frame buffers, and the
// interface cache for unsynchronized sharing.
func TestClientConcurrentStress(t *testing.T) {
	_, dial := startServer(t, server.Config{})
	c := newClient(t, dial)
	c.SetPoolSize(3)

	workers := 8
	iters := 12
	if testing.Short() {
		workers, iters = 4, 4
	}

	check := func(n int, in, out []float64) error {
		for i := range out {
			if out[i] != in[i] {
				return errors.New("echo mismatch")
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				n := 1 + (w*iters+it)%64
				in := make([]float64, n)
				for i := range in {
					in[i] = float64(w*1000 + it*100 + i)
				}
				out := make([]float64, n)
				var err error
				switch (w + it) % 3 {
				case 0: // synchronous
					_, err = c.Call("echo", n, in, out)
				case 1: // async over the pool
					_, err = c.CallAsync("echo", n, in, out).Wait()
				default: // two-phase over the pool
					var job *ninf.Job
					job, err = c.Submit("echo", n, in, out)
					if err == nil {
						_, err = job.Fetch(true)
					}
				}
				if err == nil {
					err = check(n, in, out)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
