// The wan-cache experiment measures what the content-addressed argument
// cache and persistent data handles buy on the paper's WAN: a 0.17 MB/s
// trans-Pacific link (Table 6) shared by four clients iterating on a
// fixed matrix. Four rows:
//
//	cold            first linsolve per client: full operand upload
//	warm            re-solve with a new right-hand side: digest marker
//	chain-nohandle  P_k = A × P_{k-1}, each intermediate round-trips
//	chain-handle    same chain as a transaction: results stay server-
//	                resident and chained calls pass them by digest
//
// plus a LAN small-call p50 pair (cache-enabled vs cache-less server)
// guarding the fast path against the cache's overhead.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/linpack"
	"ninf/internal/server"
)

var wanCacheExp = &Experiment{
	ID:       "wan-cache",
	Title:    "argument cache and data handles on the 0.17 MB/s WAN link",
	Artifact: "BENCH_wan_cache.json",
}

func init() {
	wanCacheExp.Run = runWANCache
	register(wanCacheExp)
}

const wanCacheFileName = "BENCH_wan_cache.json"

type wanCacheRow struct {
	Phase      string  `json:"phase"`
	Calls      int     `json:"calls"`
	Seconds    float64 `json:"seconds"`
	MeanCallMS float64 `json:"mean_call_ms"`
	BytesUp    int64   `json:"bytes_up"`
	BytesDown  int64   `json:"bytes_down"`
}

type wanCacheFile struct {
	Experiment      string        `json:"experiment"`
	Generated       time.Time     `json:"generated"`
	GoVersion       string        `json:"go_version"`
	NumCPU          int           `json:"num_cpu"`
	LinkBytesPerSec float64       `json:"link_bytes_per_sec"`
	Clients         int           `json:"clients"`
	MatrixN         int           `json:"matrix_n"`
	ChainSteps      int           `json:"chain_steps"`
	Rows            []wanCacheRow `json:"rows"`
	WarmSpeedup     float64       `json:"warm_speedup_vs_cold"`
	HandleSpeedup   float64       `json:"chain_handle_speedup_vs_nohandle"`
	LANPlainP50US   float64       `json:"lan_small_p50_plain_us"`
	LANCacheP50US   float64       `json:"lan_small_p50_cache_us"`
	LANDeltaPct     float64       `json:"lan_small_p50_delta_pct"`
}

// wanMatrix builds the LINPACK test matrix of order n, perturbed by
// tag so distinct clients (and distinct rows of this experiment) hold
// digest-distinct operands: without the perturbation the cache would
// dedup across clients and the cold row would measure one upload.
func wanMatrix(n, tag int) ([]float64, []float64) {
	a := make([]float64, n*n)
	b := linpack.Matgen(a, n)
	a[0] += float64(tag) / 16
	return a, b
}

func runWANCache(w io.Writer, opts Options) error {
	header(w, wanCacheExp)

	// n = 200 keeps the matrix (320 KB) above the stock 256 KiB digest
	// threshold in every mode; quick mode trims the fleet and fattens
	// the link so CI smokes the full code path in a few seconds.
	const n = 200
	clients, steps, lanCalls := 4, 4, 400
	rate := 0.17e6 // Table 6: 0.17 MB/s effective trans-Pacific throughput
	if opts.Quick {
		clients, steps, lanCalls = 2, 2, 50
		rate = 4e6
	}

	srv, rawDial, err := startRealServer(server.Config{
		Hostname: "wan", PEs: 4, CacheBudget: 32 << 20,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	link := emunet.NewLink("wan", rate)
	shaped := emunet.Dialer(rawDial, emunet.Options{
		Up: []*emunet.Link{link}, Down: []*emunet.Link{link},
		Latency: 20 * time.Millisecond,
	})

	cls := make([]*ninf.Client, clients)
	for i := range cls {
		c, err := ninf.NewClient(shaped)
		if err != nil {
			return err
		}
		defer c.Close()
		cls[i] = c
	}
	mats := make([][]float64, clients)
	rhs := make([][]float64, clients)
	for i := range mats {
		mats[i], rhs[i] = wanMatrix(n, i)
	}

	// solvePhase runs one linsolve per client concurrently over the
	// shared link and reports the mean client-observed call latency.
	solvePhase := func(phase string) (wanCacheRow, error) {
		var mu sync.Mutex
		var sum time.Duration
		var up, down int64
		var firstErr error
		start := time.Now()
		var wg sync.WaitGroup
		for i := range cls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				x := append([]float64(nil), rhs[i]...)
				t0 := time.Now()
				rep, err := cls[i].Call("linsolve", n, mats[i], x)
				d := time.Since(t0)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				sum += d
				up += rep.BytesOut
				down += rep.BytesIn
			}(i)
		}
		wg.Wait()
		if firstErr != nil {
			return wanCacheRow{}, firstErr
		}
		return wanCacheRow{
			Phase:      phase,
			Calls:      clients,
			Seconds:    time.Since(start).Seconds(),
			MeanCallMS: sum.Seconds() / float64(clients) * 1e3,
			BytesUp:    up,
			BytesDown:  down,
		}, nil
	}

	cold, err := solvePhase("cold")
	if err != nil {
		return err
	}
	// Same matrices, fresh right-hand sides: only digest markers go up.
	warm, err := solvePhase("warm")
	if err != nil {
		return err
	}

	// chain-nohandle: P_k = A × P_{k-1} with a plain client. A goes
	// warm after the first step, but every intermediate result returns
	// to the client and is re-uploaded as the next call's input.
	noHandle, err := runWANChainNoHandle(shaped, n, steps)
	if err != nil {
		return err
	}
	// chain-handle: the same chain as a transaction. Transactions ask
	// for result retention, so each P_k stays server-resident and the
	// dependent call passes it back as a digest marker.
	handle, err := runWANChainHandle(shaped, n, steps)
	if err != nil {
		return err
	}

	lanPlain, lanCache, err := runWANCacheLANPair(lanCalls)
	if err != nil {
		return err
	}

	rows := []wanCacheRow{cold, warm, noHandle, handle}
	warmSpeed := cold.MeanCallMS / warm.MeanCallMS
	handleSpeed := noHandle.Seconds / handle.Seconds
	deltaPct := (lanCache - lanPlain) / lanPlain * 100

	fmt.Fprintf(w, "%-16s %6s %10s %12s %12s %12s\n", "phase", "calls", "seconds", "mean call ms", "bytes up", "bytes down")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6d %10.3f %12.1f %12d %12d\n",
			r.Phase, r.Calls, r.Seconds, r.MeanCallMS, r.BytesUp, r.BytesDown)
	}
	fmt.Fprintf(w, "warm speedup vs cold: %.1fx (want >= 5x)\n", warmSpeed)
	fmt.Fprintf(w, "chain-handle speedup vs chain-nohandle: %.2fx (want > 1x)\n", handleSpeed)
	fmt.Fprintf(w, "LAN small-call p50: plain %.0fus, cache %.0fus, delta %+.1f%% (want <= 3%%)\n",
		lanPlain, lanCache, deltaPct)

	if opts.Quick {
		return nil
	}
	doc := wanCacheFile{
		Experiment:      wanCacheExp.ID,
		Generated:       time.Now().UTC(),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		LinkBytesPerSec: rate,
		Clients:         clients,
		MatrixN:         n,
		ChainSteps:      steps,
		Rows:            rows,
		WarmSpeedup:     warmSpeed,
		HandleSpeedup:   handleSpeed,
		LANPlainP50US:   lanPlain,
		LANCacheP50US:   lanCache,
		LANDeltaPct:     deltaPct,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(wanCacheFileName, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", wanCacheFileName)
	return nil
}

// chainSeed builds the A matrix and starting vector-of-iterates for a
// chain row; tags keep the two rows digest-distinct from each other
// and from the solve phases.
func chainSeed(n, tag int) ([]float64, []float64) {
	a, _ := wanMatrix(n, 100+tag)
	p := make([]float64, n*n)
	for i := range p {
		p[i] = float64((i+tag)%97) / 97
	}
	return a, p
}

func runWANChainNoHandle(dial func() (net.Conn, error), n, steps int) (wanCacheRow, error) {
	c, err := ninf.NewClient(dial)
	if err != nil {
		return wanCacheRow{}, err
	}
	defer c.Close()
	a, cur := chainSeed(n, 0)
	next := make([]float64, n*n)
	var up, down int64
	var sum time.Duration
	start := time.Now()
	for k := 0; k < steps; k++ {
		t0 := time.Now()
		rep, err := c.Call("dmmul", n, a, cur, next)
		if err != nil {
			return wanCacheRow{}, err
		}
		sum += time.Since(t0)
		up += rep.BytesOut
		down += rep.BytesIn
		cur, next = next, cur
	}
	return wanCacheRow{
		Phase:      "chain-nohandle",
		Calls:      steps,
		Seconds:    time.Since(start).Seconds(),
		MeanCallMS: sum.Seconds() / float64(steps) * 1e3,
		BytesUp:    up,
		BytesDown:  down,
	}, nil
}

func runWANChainHandle(dial func() (net.Conn, error), n, steps int) (wanCacheRow, error) {
	a, p0 := chainSeed(n, 1)
	tx := ninf.BeginTransaction(ninf.SingleServer("wan", dial))
	bufs := make([][]float64, steps+1)
	bufs[0] = p0
	for k := 1; k <= steps; k++ {
		bufs[k] = make([]float64, n*n)
		tx.Call("dmmul", n, a, bufs[k-1], bufs[k])
	}
	start := time.Now()
	if err := tx.End(); err != nil {
		return wanCacheRow{}, err
	}
	elapsed := time.Since(start)
	var up, down int64
	var sum time.Duration
	for _, rep := range tx.Reports() {
		up += rep.BytesOut
		down += rep.BytesIn
		sum += rep.Total()
	}
	return wanCacheRow{
		Phase:      "chain-handle",
		Calls:      steps,
		Seconds:    elapsed.Seconds(),
		MeanCallMS: sum.Seconds() / float64(steps) * 1e3,
		BytesUp:    up,
		BytesDown:  down,
	}, nil
}

// runWANCacheLANPair measures the small-call fast path with no link
// shaping: p50 echo latency against a cache-less server vs a
// cache-enabled one, interleaved so ambient noise hits both. Small
// operands never reach the digest threshold, so any gap is pure
// protocol overhead from granting and carrying the cache.
func runWANCacheLANPair(calls int) (plainP50, cacheP50 float64, err error) {
	plainS, plainDial, err := startRealServer(server.Config{Hostname: "lan-plain", PEs: 4})
	if err != nil {
		return 0, 0, err
	}
	defer plainS.Close()
	cacheS, cacheDial, err := startRealServer(server.Config{Hostname: "lan-cache", PEs: 4, CacheBudget: 32 << 20})
	if err != nil {
		return 0, 0, err
	}
	defer cacheS.Close()

	pc, err := ninf.NewClient(plainDial)
	if err != nil {
		return 0, 0, err
	}
	defer pc.Close()
	cc, err := ninf.NewClient(cacheDial)
	if err != nil {
		return 0, 0, err
	}
	defer cc.Close()

	const small = 64
	in := make([]float64, small)
	out := make([]float64, small)
	one := func(c *ninf.Client) (float64, error) {
		t0 := time.Now()
		_, err := c.Call("echo", small, in, out)
		return time.Since(t0).Seconds() * 1e6, err
	}
	for i := 0; i < 20; i++ { // warmup: sessions, JIT-ish paths, pools
		if _, err := one(pc); err != nil {
			return 0, 0, err
		}
		if _, err := one(cc); err != nil {
			return 0, 0, err
		}
	}
	plain := make([]float64, 0, calls)
	cache := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		d, err := one(pc)
		if err != nil {
			return 0, 0, err
		}
		plain = append(plain, d)
		d, err = one(cc)
		if err != nil {
			return 0, 0, err
		}
		cache = append(cache, d)
	}
	return percentile50(plain), percentile50(cache), nil
}

func percentile50(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
