// Command benchmark is the repository's one repeatable Ninf_call
// benchmark: seven workloads driven through the real client, server,
// mux, protocol, journal, argument cache and link emulator in one
// process, every result checked, every metric printed by name with its
// unit. See README.md in this directory.
//
//	bash benchmark/run.sh                          every workload, untraced
//	bash benchmark/run.sh -trace 1                 per-layer metrics + span files
//	bash benchmark/run.sh -workload mid_mux        one workload; last line is the summary object
//	bash benchmark/run.sh -compare A.json B.json   verdict per metric × workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	schemaName   = "ninf-benchmark/1"
	setupRepeats = 5  // setup_s is the median of this many set-ups
	bucketCount  = 10 // the timed window is cut into this many buckets
)

// result is one workload's outcome in a result file.
type result struct {
	Workload   string  `json:"workload"`
	Transport  string  `json:"transport"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// PacingErrorFrac is how far emunet was from the link rate it was
	// asked for, probed right after the run (link workloads only). Two
	// sets whose links differed by more than 0.05 are not comparable.
	PacingErrorFrac float64   `json:"pacing_error_frac,omitempty"`
	Metrics         metricSet `json:"metrics"`
}

type resultFile struct {
	Schema  string      `json:"schema"`
	Env     environment `json:"env"`
	Results []result    `json:"results"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics and span files; 0: untraced, end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json[,A2.json...] B.json[,...]")
	out := fs.String("out", "", "result file (default: benchmark/out/result-*.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result sets")
			return 2
		}
		return compareSets(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	var todo []*workload
	for _, w := range sp.Workloads {
		if *name == "all" || *name == w.Name {
			wl := findWorkload(w.Name)
			if wl == nil {
				fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json names workload %q, the harness has none\n", w.Name)
				return 2
			}
			todo = append(todo, wl)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
		return 2
	}

	traced := *trace != 0
	win := time.Duration(*seconds * float64(time.Second))
	file := resultFile{Schema: schemaName, Env: readEnvironment(sp.root)}
	file.Env.Seed, file.Env.Traced = *seed, traced
	file.Env.WarmupS, file.Env.WindowS = warmupFor(win).Seconds(), win.Seconds()
	file.Env.Buckets, file.Env.SetupRuns = bucketCount, setupRepeats
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file.Env.ScratchFS = fsName(outDir())

	code := 0
	for _, w := range todo {
		var res result
		if traced {
			res, err = runTraced(w, *seed, win, sp)
		} else {
			res, err = runUntraced(w, *seed, win)
		}
		if err == nil {
			err = sp.check(res.Metrics, traced)
		}
		if err != nil {
			// No result line for a run that could not produce every
			// declared metric.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		printResult(res)
		file.Results = append(file.Results, res)
	}

	path := *out
	if path == "" {
		path = filepath.Join(outDir(), fmt.Sprintf("result-trace%d-seed%d-%s.json", *trace, *seed, *name))
	}
	blob, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	if len(file.Results) == 1 {
		// The driver reads the last line of standard output.
		fmt.Println(summaryLine(file.Results[0]))
	}
	return code
}

// callerCount is the closed-loop callers of every workload: two, and
// never more than the machine has processors.
func callerCount() int { return min(2, runtime.NumCPU()) }

func warmupFor(win time.Duration) time.Duration {
	return min(time.Second, win/10)
}

// runUntraced sets the workload up several times, measures the last
// instance for win after a warm-up, and reduces the recs to the
// end-to-end metrics. Nothing here wraps a connection or keeps a
// Report.
func runUntraced(w *workload, seed int64, win time.Duration) (result, error) {
	dir, err := scratchDir()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	o := runOpts{seed: seed, callers: callerCount(), dir: dir}
	var inst *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		t := time.Now()
		if inst, err = w.setup(o); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()

	recs, _, tw := measure(w, inst, win, nil)
	res := reduce(w, recs, tw)
	res.Metrics.set("setup_s", "s", median(setups), len(setups))
	if w.linkBps > 0 {
		res.PacingErrorFrac = pacingError(w.linkBps)
	}
	return res, nil
}

// measure drives inst through a warm-up and the timed window.
func measure(w *workload, inst *instance, win time.Duration, tr *tracer) ([]rec, []float64, window) {
	runtime.GC() // start every window from a collected heap
	warm := warmupFor(win)
	bl := int64(win) / bucketCount
	tw := window{t0: int64(warm), t1: int64(warm) + bl*bucketCount, buckets: bucketCount}
	expect := int(float64(w.callsPerSec) * (warm + win).Seconds() * 1.5)
	clk := clock{time.Now()}
	if tr != nil {
		tr.arm(clk, tw)
	}
	recs, late := drive(inst.callers, inst.open, clk, tw.t1, expect)
	if inst.open != nil {
		// Keep the generator's lateness for due times inside the window.
		lo, hi := int(tw.t0/int64(inst.open.period))+1, int(tw.t1/int64(inst.open.period))
		late = late[min(lo, len(late)):min(hi, len(late))]
	}
	return recs, late, tw
}

// reduce turns a window's recs into the end-to-end metrics every
// workload reports. A workload without scheduled, cold or warm calls
// reports its call median under those names, so that every workload
// emits every declared metric; only mixed_link and wan_cache give them
// a value of their own.
func reduce(w *workload, recs []rec, tw window) result {
	res := result{Workload: w.name, Transport: w.transport, Metrics: metricSet{}}
	for i := range recs {
		if r := &recs[i]; r.start >= tw.t0 && r.start < tw.t1 {
			res.Attempted++
			if !r.ok {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	calls, bytes := bucketRates(recs, tw)
	m := res.Metrics
	m.set("calls_per_s", "1/s", median(calls), len(calls))
	m.set("payload_mb_per_s", "MB/s", median(bytes)/1e6, len(bytes))
	lat := latencies(recs, tw, func(c uint8) bool { return c != classSmall })
	p50 := quantile(lat, 0.5)
	m.set("call_p50_us", "us", p50, len(lat))
	byClass := func(name, unit string, class uint8, scale float64, stat func([]rec) (float64, int)) {
		var own []rec
		for i := range recs {
			if recs[i].class == class {
				own = append(own, recs[i])
			}
		}
		if v, n := stat(own); n > 0 {
			m.set(name, unit, v*scale, n)
		} else {
			m.set(name, unit, p50*scale, len(lat))
		}
	}
	all := func(uint8) bool { return true }
	p50Of := func(own []rec) (float64, int) {
		l := latencies(own, tw, all)
		return quantile(l, 0.5), len(l)
	}
	// The scheduled calls' p99 is taken per bucket (500 calls each) and
	// the median of the buckets reported, as for the rates: one 100 ms
	// hiccup of the machine would otherwise own the run's p99.
	p99PerBucket := func(own []rec) (float64, int) {
		var p99s []float64
		n, bl := 0, tw.bucketLen()
		for b := 0; b < tw.buckets; b++ {
			bw := window{t0: tw.t0 + int64(b)*bl, t1: tw.t0 + int64(b+1)*bl, buckets: 1}
			if l := latencies(own, bw, all); len(l) > 0 {
				p99s = append(p99s, quantile(l, 0.99))
				n += len(l)
			}
		}
		return median(p99s), n
	}
	byClass("small_call_p99_us", "us", classSmall, 1, p99PerBucket)
	byClass("cold_call_p50_ms", "ms", classCold, 1e-3, p50Of)
	byClass("warm_call_p50_ms", "ms", classWarm, 1e-3, p50Of)
	return res
}

func printResult(r result) {
	fmt.Printf("== %s (%s): attempted %d, failed %d, failed_frac %g\n",
		r.Workload, r.Transport, r.Attempted, r.Failed, r.FailedFrac)
	if r.PacingErrorFrac != 0 {
		fmt.Printf("   link emulator pacing error %.3f of the asked rate\n", r.PacingErrorFrac)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		if v.Samples > 0 {
			fmt.Printf("   %-34s %14.4f %-6s (n=%d)\n", n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Printf("   %-34s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
}

// summaryLine is the object the driver parses: exactly correct,
// attempted, failed and metrics, each metric a value and a unit.
func summaryLine(r result) string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]vu{}
	for n, v := range r.Metrics {
		ms[n] = vu{v.Value, v.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(b)
}
