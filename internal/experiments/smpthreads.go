package experiments

import (
	"fmt"
	"io"

	"ninf/internal/machine"
)

func init() {
	e := &Experiment{
		ID:       "ablation-smp-threads",
		Title:    "SMP library thread count vs client count (thread-switching overhead)",
		Artifact: "§4.2.1 SMP observation",
	}
	e.Run = func(w io.Writer, opts Options) error {
		header(w, e)
		return runSMPThreads(w)
	}
	register(e)
}

// runSMPThreads models the paper's §4.2.1 SMP observation: "highly-
// multithreaded versions exhibit notable slowdown as c increases
// (e.g., when number of threads = 12) … Solaris 2.5 … does not
// co-schedule multiple threads well, resulting in various thread-
// switching overhead, including cache and TLB misses."
//
// Model: a 16-PE SMP serves c concurrent solves, each parallelized
// over t threads. Useful speedup of one job is t×eff(t) while its
// threads hold PEs; when c·t exceeds the PE count the OS timeshares,
// and every involuntary switch costs cache/TLB refill time. Per-job
// rate:
//
//	rate(t, c) = base · t·eff(t) · min(1, P/(c·t)) · (1 − σ(t, c))
//
// with eff(t) the library's parallel efficiency and σ the switching
// overhead, growing with the oversubscription factor and with t (more
// threads → more working sets being swapped):
//
//	σ = min(0.75, 0.04·t·max(0, c·t/P − 1))
//
// The table prints per-client Mflops for t ∈ {1,4,12} over c; the
// §4.2.1 shape is that t=12 wins at c=1 but loses to t=1 well before
// c=16, so "there is a need for determining the optimal number of
// threads versus the number of clients".
func runSMPThreads(w io.Writer) error {
	smp := machine.MustCatalog("sparc-smp")
	base := smp.LocalMflops(600)
	pes := float64(smp.PEs)

	eff := func(t float64) float64 {
		// Parallel efficiency of the threaded solver: Amdahl-ish.
		return 1 / (1 + 0.06*(t-1))
	}
	sigma := func(t, c float64) float64 {
		over := c*t/pes - 1
		if over < 0 {
			over = 0
		}
		s := 0.04 * t * over
		if s > 0.75 {
			s = 0.75
		}
		return s
	}
	rate := func(t, c float64) float64 {
		share := 1.0
		if c*t > pes {
			share = pes / (c * t)
		}
		return base * t * eff(t) * share * (1 - sigma(t, c))
	}

	clients := []float64{1, 2, 4, 8, 16}
	threads := []float64{1, 4, 12}
	fmt.Fprintf(w, "per-client solve rate [Mflops] on the 16-PE SMP (n=600 library)\n")
	fmt.Fprintf(w, "%10s", "threads\\c")
	for _, c := range clients {
		fmt.Fprintf(w, "%9.0f", c)
	}
	fmt.Fprintln(w)
	for _, t := range threads {
		fmt.Fprintf(w, "%10.0f", t)
		for _, c := range clients {
			fmt.Fprintf(w, "%9.2f", rate(t, c))
		}
		fmt.Fprintln(w)
	}

	// Optimal thread count per client count.
	fmt.Fprintf(w, "\n%10s", "best t:")
	for _, c := range clients {
		bestT, bestR := 0.0, -1.0
		for t := 1.0; t <= 16; t++ {
			if r := rate(t, c); r > bestR {
				bestR, bestT = r, t
			}
		}
		fmt.Fprintf(w, "%9.0f", bestT)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, smpThreadsNote)
	return nil
}
