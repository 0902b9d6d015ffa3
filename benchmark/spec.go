package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is BENCHMARK.json: the declared workloads, metrics, units and
// regression bounds. The harness computes metrics by name and refuses
// to report a run whose metric set differs from the declared one, so
// the file and the code cannot drift apart.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWork   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory (the driver
// runs from the checkout root) or its parent (go test runs in
// benchmark/).
func loadSpec() (*spec, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		s.root = dir
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (s *spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarizes; omitted
	// for counters and ratios.
	Samples int `json:"samples,omitempty"`
}

type metricSet map[string]metric

// set records a value; a ratio whose base was 0 reads 0, as a layer
// that was not exercised does, since JSON has no NaN.
func (m metricSet) set(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// check reports every way got departs from the declared list: a
// declared metric missing, an undeclared one present, a unit that
// differs.
func (s *spec) check(got metricSet, traced bool) error {
	var bad []string
	want := map[string]bool{}
	for _, d := range s.metrics(traced) {
		want[d.Name] = true
		g, ok := got[d.Name]
		switch {
		case !ok:
			bad = append(bad, "missing "+d.Name)
		case g.Unit != d.Unit:
			bad = append(bad, fmt.Sprintf("%s in %q, declared %q", d.Name, g.Unit, d.Unit))
		}
	}
	for name := range got {
		if !want[name] {
			bad = append(bad, "undeclared "+name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics differ from BENCHMARK.json: %v", bad)
	}
	return nil
}
