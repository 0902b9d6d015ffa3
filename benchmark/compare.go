package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A result set is one or more result files of the same commit, given
// as a comma-separated list. compareSets prints, for every end-to-end
// metric × workload, the set medians and a verdict under the metric's
// bound from BENCHMARK.json:
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  the run-to-run spread of either set exceeds the bound
//	            (unless every run of B reads better than every run of
//	            A; setup_s, a few tens of ms, is judged on its median
//	            alone), or — link workloads — the emulated link's measured
//	            pacing error differs by more than 0.05 between the sets:
//	            they did not run over the same link
//	unchanged   otherwise
//
// failed_frac has no bound: any rise is a regression. The exit code is
// non-zero if anything regressed.

// loadSet reads the files of one set into workload → metric → values.
func loadSet(list string) (map[string]map[string][]float64, error) {
	vals := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Schema != schemaName {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaName)
		}
		for _, r := range f.Results {
			ms := vals[r.Workload]
			if ms == nil {
				ms = map[string][]float64{}
				vals[r.Workload] = ms
			}
			for name, v := range r.Metrics {
				ms[name] = append(ms[name], v.Value)
			}
			ms["failed_frac"] = append(ms["failed_frac"], r.FailedFrac)
			ms[pacingKey] = append(ms[pacingKey], r.PacingErrorFrac)
		}
	}
	return vals, nil
}

// pacingKey files each run's pacing error beside its metrics.
const pacingKey = "pacing_error_frac"

// spread is the run-to-run spread of one set as a share of its median:
// the interquartile distance with four or more runs, the whole range
// with fewer, 0 for a single run.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantile(s, 0.25), quantile(s, 0.75)
	}
	return (hi - lo) / med
}

func compareSets(w io.Writer, sp *spec, listA, listB string) int {
	a, err := loadSet(listA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadSet(listB); err == nil {
			return verdicts(w, sp, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
	return 2
}

func verdicts(w io.Writer, sp *spec, a, b map[string]map[string][]float64) int {
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	counts := map[string]int{}
	decl := append([]specMetric{}, sp.EndToEnd...)
	decl = append(decl, specMetric{Name: "failed_frac", Unit: "frac", Better: "lower"})
	for _, wk := range sp.Workloads {
		pa, pb := median(a[wk.Name][pacingKey]), median(b[wk.Name][pacingKey])
		otherLink := pa-pb > 0.05 || pb-pa > 0.05
		for _, d := range decl {
			va, vb := a[wk.Name][d.Name], b[wk.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is how far B's median moved in the bad direction, as
			// a share of A's.
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			} else if mb > 0 && d.Better == "lower" {
				worse = 1 // from zero to something: failed_frac rising
			}
			sprd := max(spread(va), spread(vb))
			verdict := "unchanged"
			switch {
			case d.Name == "failed_frac":
				if mb > ma {
					verdict = "regressed"
				}
			case otherLink:
				verdict = "unresolved"
			case sprd > d.Bound && d.Name != "setup_s" && !allBetter(va, vb, d.Better):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-15s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wk.Name, d.Name, ma, mb, 100*worse, 100*sprd, 100*d.Bound, verdict)
		}
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, counts[k])
	}
	fmt.Fprintln(w, "\n(change is B against A in the worse direction; spread is the larger set's run-to-run spread)")
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
