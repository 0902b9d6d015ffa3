package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These tests check correctness and schema only — every output
// verified, every declared name emitted with its declared unit. They
// assert no timing: a loaded machine must not fail them.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecNamesAndWorkloads(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range sp.Workloads {
		check("workload", w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q has no harness workload", w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(sp.Workloads), len(workloads))
	}
	setup := false
	for _, m := range sp.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		check("per-layer metric", m.Name)
	}
}

// TestWorkloadsUntraced runs every workload's real path for a fraction
// of a second and checks its outputs and its end-to-end metric set.
func TestWorkloadsUntraced(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			inst, err := w.setup(runOpts{seed: 7, callers: callerCount(), dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			win := 300 * time.Millisecond
			if w.name == "mixed_link" {
				win = 1500 * time.Millisecond // an 8 MiB call over the link takes 0.75 s
			}
			recs, _, tw := measure(w, inst, win, nil)
			res := reduce(w, recs, tw)
			if res.Attempted == 0 {
				// A machine so loaded that no call began inside the window:
				// give it a longer one rather than fail on timing.
				recs, _, tw = measure(w, inst, 8*win, nil)
				res = reduce(w, recs, tw)
			}
			res.Metrics.set("setup_s", "s", 1, 1)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if err := sp.check(res.Metrics, false); err != nil {
				t.Error(err)
			}
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, v.Value)
				}
			}
		})
	}
}

// TestTracedSchema runs the whole traced pipeline on two workloads —
// one loopback, one journaled — and checks the per-layer metric set
// and the span file.
func TestTracedSchema(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"small_mux", "submit_journal"} {
		res, err := runTraced(findWorkload(name), 7, 300*time.Millisecond, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: attempted %d, failed %d", name, res.Attempted, res.Failed)
		}
		if err := sp.check(res.Metrics, true); err != nil {
			t.Error(err)
		}
		for _, want := range []string{"server.raw_exchange_us_p50", "protocol.encode_req_us", "net.loopback_rtt_us_p50", "reconcile.layer_sum_us"} {
			if res.Metrics[want].Value <= 0 {
				t.Errorf("%s: %s = %v, want a measurement", name, want, res.Metrics[want].Value)
			}
		}
		spans, err := os.ReadFile(filepath.Join(outDir(), "spans-"+name+"-seed7.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var first span
		if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil || first.Name != "call" {
			t.Errorf("%s: first span %+v, err %v", name, first, err)
		}
	}
}

// TestBucketRatesSplitsStraddlers pins the attribution rule: a call is
// shared between the buckets it overlaps in proportion to time.
func TestBucketRatesSplitsStraddlers(t *testing.T) {
	w := window{t0: 0, t1: 2e9, buckets: 2}
	recs := []rec{
		{start: 0.5e9, end: 1.5e9, bytes: 100, ok: true}, // half in each bucket
		{start: 1.5e9, end: 2.5e9, bytes: 100, ok: true}, // half in bucket 1, half outside
		{start: 0, end: 1e9, bytes: 100, ok: false},      // failed: not counted
	}
	calls, bytes := bucketRates(recs, w)
	if calls[0] != 0.5 || calls[1] != 1 || bytes[0] != 50 || bytes[1] != 100 {
		t.Errorf("calls %v bytes %v, want [0.5 1] [50 100]", calls, bytes)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{
		Workloads: []specWork{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "lat", Unit: "us", Better: "lower", Bound: 0.1},
			{Name: "noisy", Unit: "us", Better: "lower", Bound: 0.1},
		},
	}
	set := func(rate, lat, noisy []float64, failed float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"rate": rate, "lat": lat, "noisy": noisy,
			"failed_frac": {failed}, pacingKey: {0}}}
	}
	a := set([]float64{100, 101, 99}, []float64{10, 10, 10}, []float64{10, 20, 30}, 0)
	b := set([]float64{80, 81, 79}, []float64{10.5, 10.5, 10.5}, []float64{11, 21, 31}, 0)
	var out bytes.Buffer
	if code := verdicts(&out, sp, a, b); code != 1 {
		t.Errorf("exit %d, want 1 (rate regressed)\n%s", code, out.String())
	}
	for _, want := range []string{"rate", "regressed", "unchanged", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := verdicts(&out, sp, a, a); code != 0 {
		t.Errorf("a set against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	worse := set([]float64{100, 101, 99}, []float64{10, 10, 10}, []float64{10, 20, 30}, 0.01)
	if code := verdicts(&out, sp, a, worse); code != 1 {
		t.Errorf("failed_frac rose: exit %d, want 1\n%s", code, out.String())
	}
}
