package emunet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// transfer pushes n bytes through a shaped pipe and returns the
// elapsed time.
func transfer(t *testing.T, w io.Writer, r io.Reader, n int) time.Duration {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, r, int64(n))
		done <- err
	}()
	buf := make([]byte, n) // zeroing 8 MiB takes ms: keep it off the clock
	start := time.Now()
	if _, err := w.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// halfSecond is how many bytes the rate tests send: half a second of
// traffic at rate, capped at 8 MiB.
func halfSecond(rate float64) int { return min(8<<20, int(rate/2)) }

// retried runs measure until it returns nil, at most three times, and
// fails t with its last error. Load from other tests can slow a
// transfer but never speed one up, so only a slow reading is retried;
// checkRate fails a fast one at once.
func retried(t *testing.T, measure func() error) {
	t.Helper()
	var err error
	for i := 1; i <= 3; i++ {
		if err = measure(); err == nil {
			return
		}
		t.Logf("attempt %d: %v", i, err)
	}
	t.Error(err)
}

// watchStalls samples short sleeps until the returned func is called,
// which reports how long the OS held them past timerFloor in all. The
// pacer keeps its rate only while sleeps end within timerFloor of
// their target; time a loaded machine takes beyond that is lost to the
// link, and the slow-side check forgives it.
func watchStalls() (stop func() time.Duration) {
	done := make(chan struct{})
	lost := make(chan time.Duration)
	go func() {
		var sum time.Duration
		for {
			select {
			case <-done:
				lost <- sum
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(100 * time.Microsecond)
			sum += max(0, time.Since(t0)-timerFloor)
		}
	}()
	return func() time.Duration { close(done); return <-lost }
}

// checkRate holds n bytes in el to rate within 5%. A link's bucket
// starts full, so its first free bytes cost no time and are not
// counted. Faster than that fails t. Slower, even with the stalled
// time taken off el, is returned, to retry.
func checkRate(t *testing.T, what string, rate float64, n int, free float64, el, stalled time.Duration) error {
	t.Helper()
	paced := float64(n) - free
	got := paced / el.Seconds()
	if e := got/rate - 1; e > 0.05 {
		t.Errorf("%s: %.4g MB/s on a %.4g MB/s link (%+.1f%%)", what, got/1e6, rate/1e6, 100*e)
	} else if e := paced/(el-stalled).Seconds()/rate - 1; e < -0.05 {
		return fmt.Errorf("%s: %.4g MB/s on a %.4g MB/s link (%+.1f%% with %v of timer stalls forgiven)",
			what, got/1e6, rate/1e6, 100*e, stalled)
	}
	return nil
}

// shapedRate pushes halfSecond(rate) bytes through links and checks
// they moved at rate. Before each attempt it waits for every bucket to
// fill, so the free bytes are the shallowest bucket on the path.
func shapedRate(t *testing.T, what string, rate float64, links ...*Link) {
	t.Helper()
	free := links[0].burst
	for _, l := range links {
		free = min(free, l.burst)
	}
	n := halfSecond(rate)
	retried(t, func() error {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		time.Sleep(timerFloor)
		stalls := watchStalls()
		el := transfer(t, Wrap(a, Options{Up: links}), b, n)
		return checkRate(t, what, rate, n, free, el, stalls())
	})
}

// TestLinkRateAccurate holds a link to its configured rate from the
// paper's 0.17 MB/s WAN to a 100 MB/s LAN, where a chunk's debt is far
// below the OS timer's resolution.
func TestLinkRateAccurate(t *testing.T) {
	for _, mbps := range []float64{0.17, 1, 4, 16, 100} {
		t.Run(fmt.Sprintf("%gMBps", mbps), func(t *testing.T) {
			shapedRate(t, "one link", mbps*1e6, NewLink("l", mbps*1e6))
		})
	}
}

// TestPathBottleneck: a path runs at its slowest hop, wherever it is,
// and equal hops do not compound.
func TestPathBottleneck(t *testing.T) {
	for _, tc := range []struct {
		name string
		hops []float64 // MB/s
		want float64   // MB/s
	}{
		{"three-equal", []float64{100, 100, 100}, 100},
		{"slow-first", []float64{10, 100, 100}, 10},
		{"slow-last", []float64{100, 100, 10}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var links []*Link
			for _, mbps := range tc.hops {
				links = append(links, NewLink("hop", mbps*1e6))
			}
			shapedRate(t, fmt.Sprint(tc.hops), tc.want*1e6, links...)
		})
	}
}

func TestLinkCapsThroughput(t *testing.T) {
	link := NewLink("lan", 1<<20) // 1 MiB/s
	a, b := net.Pipe()
	w := Wrap(a, Options{Up: []*Link{link}})
	n := 256 << 10 // 256 KiB → ≥ ~0.23 s at 1 MiB/s (minus burst)
	el := transfer(t, w, b, n)
	min := 150 * time.Millisecond
	max := 2 * time.Second
	if el < min || el > max {
		t.Errorf("256 KiB over 1 MiB/s took %v, want within [%v, %v]", el, min, max)
	}
}

func TestSharedLinkSplitsBandwidth(t *testing.T) {
	for _, rate := range []float64{2 << 20, 100e6} {
		t.Run(fmt.Sprintf("%.4gMBps", rate/1e6), func(t *testing.T) {
			n := halfSecond(rate) / 2
			retried(t, func() error {
				// One stream alone.
				link := NewLink("backbone", rate)
				a1, b1 := net.Pipe()
				defer a1.Close()
				defer b1.Close()
				solo := transfer(t, Wrap(a1, Options{Up: []*Link{link}}), b1, n)

				// Two streams sharing the same link concurrently: the
				// aggregate is the link's capacity, neither more nor
				// less, so total wall-clock for 2×n bytes must be about
				// twice the solo time. Chunk interleaving is only
				// approximately fair, so assert on the total, not on
				// each stream.
				link2 := NewLink("backbone2", rate)
				buf := make([]byte, n) // only read, so both streams share it
				var wg sync.WaitGroup
				stalls := watchStalls()
				start := time.Now()
				for i := 0; i < 2; i++ {
					a, b := net.Pipe()
					defer a.Close()
					defer b.Close()
					w := Wrap(a, Options{Up: []*Link{link2}})
					wg.Add(1)
					go func(w io.Writer, r io.Reader) {
						defer wg.Done()
						done := make(chan struct{})
						go func() { io.CopyN(io.Discard, r, int64(n)); close(done) }()
						w.Write(buf)
						<-done
					}(w, b)
				}
				wg.Wait()
				total := time.Since(start)
				if err := checkRate(t, "two streams together", rate, 2*n, depth(rate), total, stalls()); err != nil {
					return err
				}
				if total < time.Duration(float64(solo)*1.6) {
					return fmt.Errorf("2×%d B over shared link took %v, solo %v — aggregate exceeded capacity", n, total, solo)
				}
				return nil
			})
		})
	}
}

func TestLatencyCharged(t *testing.T) {
	a, b := net.Pipe()
	w := Wrap(a, Options{Latency: 30 * time.Millisecond})
	el := transfer(t, w, b, 64)
	if el < 30*time.Millisecond {
		t.Errorf("64 B with 30 ms latency took %v", el)
	}
	if el > time.Second {
		t.Errorf("latency overhead too large: %v", el)
	}
}

func TestDataIntegrity(t *testing.T) {
	link := NewLink("l", 8<<20)
	a, b := Pipe(Options{Up: []*Link{link}, Down: []*Link{link}})
	payload := make([]byte, 70000) // crosses many chunks
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		a.Write(payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted through shaped pipe")
	}

	// And the reverse direction.
	go func() {
		b.Write(payload[:1000])
	}()
	back := make([]byte, 1000)
	if _, err := io.ReadFull(a, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload[:1000]) {
		t.Error("reverse payload corrupted")
	}
}

func TestDialerWraps(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	link := NewLink("wan", 1<<20)
	dial := Dialer(func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}, Options{Up: []*Link{link}})
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Write(make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Errorf("shaped TCP write took only %v", el)
	}
}

func TestSetRate(t *testing.T) {
	link := NewLink("x", 1<<20)
	if link.Rate() != 1<<20 {
		t.Errorf("rate = %g", link.Rate())
	}
	link.SetRate(2 << 20)
	if link.Rate() != 2<<20 {
		t.Errorf("rate = %g after SetRate", link.Rate())
	}
	link.SetRate(-1) // ignored
	if link.Rate() != 2<<20 {
		t.Errorf("negative rate not ignored")
	}
	if link.Name() != "x" {
		t.Errorf("name = %q", link.Name())
	}

	// The bucket depth follows the rate both ways: a link raised from
	// 1 MB/s to 100 MB/s paces at 100 MB/s, and one lowered keeps no
	// more credit than its new depth.
	up := NewLink("up", 1e6)
	up.SetRate(100e6)
	shapedRate(t, "raised from 1 MB/s", 100e6, up)
	down := NewLink("down", 100e6)
	down.SetRate(1e6)
	if down.burst != 2*DefaultChunk || down.tokens > down.burst {
		t.Errorf("lowered to 1 MB/s: depth %g, tokens %g, want depth %d", down.burst, down.tokens, 2*DefaultChunk)
	}
}

func TestNewLinkPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive capacity")
		}
	}()
	NewLink("bad", 0)
}
