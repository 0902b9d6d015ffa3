package ninfsim

import (
	"testing"

	"ninf/internal/machine"
	"ninf/internal/metrics"
	"ninf/internal/netmodel"
)

func runOne(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Times() == 0 {
		t.Fatal("no calls completed")
	}
	return res
}

func meanPerf(res *Result) float64 {
	var s metrics.Series
	for i := range res.Calls {
		s.Add(res.Calls[i].PerfMflops())
	}
	return s.Mean()
}

func meanThroughput(res *Result) float64 {
	var s metrics.Series
	for i := range res.Calls {
		s.Add(res.Calls[i].ThroughputMBps())
	}
	return s.Mean()
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil server accepted")
	}
	j90 := machine.MustCatalog("j90")
	if _, err := Run(Config{Server: j90, Net: netmodel.Spec{Name: "bad"}}); err == nil {
		t.Error("invalid net accepted")
	}
	if _, err := Run(Config{Server: j90, Net: netmodel.LANJ90(1), Workload: Linpack}); err == nil {
		t.Error("Linpack without N accepted")
	}
	if _, err := Run(Config{Server: j90, Net: netmodel.LANJ90(1), Workload: Echo}); err == nil {
		t.Error("Echo without bytes accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Server: machine.MustCatalog("j90"), Mode: TaskParallel,
		Net: netmodel.LANJ90(4), Workload: Linpack, N: 600,
		Duration: 300, Seed: 7,
	}
	a := runOne(t, cfg)
	b := runOne(t, cfg)
	if a.Times() != b.Times() || a.CPUUtil != b.CPUUtil || a.LoadAverage != b.LoadAverage {
		t.Error("same seed produced different results")
	}
	for i := range a.Calls {
		if a.Calls[i] != b.Calls[i] {
			t.Fatalf("call %d differs", i)
		}
	}
	cfg.Seed = 8
	c := runOne(t, cfg)
	if c.Times() == a.Times() && c.CPUUtil == a.CPUUtil {
		t.Log("different seed produced identical aggregate (possible but unlikely)")
	}
}

// The anchor tests below hold the simulator to coarse bounds at their
// own seeds and durations. The published values, and tighter bands on
// the full-length experiments, are rows of internal/experiments/paper.go
// (TestPaperAgreement); each test names the rows it shadows.

// TestTable3Anchor checks the single-client LAN cell of Table 3:
// n=1400, c=1, 1-PE (rows "Table 3 · n=1400 c=1 · perf/CPU/load").
func TestTable3Anchor(t *testing.T) {
	res := runOne(t, Config{
		Server: machine.MustCatalog("j90"), Mode: TaskParallel,
		Net: netmodel.LANJ90(1), Workload: Linpack, N: 1400,
		Duration: 900, Seed: 3,
	})
	if p := meanPerf(res); p < 95 || p > 135 {
		t.Errorf("perf = %.1f Mflops, want 95–135", p)
	}
	if res.CPUUtil < 15 || res.CPUUtil > 35 {
		t.Errorf("CPU = %.1f%%, want 15–35", res.CPUUtil)
	}
	if res.LoadAverage < 0.7 || res.LoadAverage > 1.8 {
		t.Errorf("load = %.2f, want 0.7–1.8", res.LoadAverage)
	}
}

// TestTable4Anchor checks n=1400, c=1, 4-PE (row "Table 4 · n=1400 c=1
// · perf Mflops").
func TestTable4Anchor(t *testing.T) {
	res := runOne(t, Config{
		Server: machine.MustCatalog("j90"), Mode: DataParallel,
		Net: netmodel.LANJ90(1), Workload: Linpack, N: 1400,
		Duration: 900, Seed: 3,
	})
	if p := meanPerf(res); p < 160 || p > 230 {
		t.Errorf("perf = %.1f Mflops, want 160–230", p)
	}
}

// TestMultiClientDegradation checks the headline Table 3 shape: per-
// client performance falls sharply from c=1 to c=16 and the server
// saturates (rows "Table 3 · n=1000 · perf c=1 / c=16" and "Table 3 ·
// n=1000 c=16 · CPU %").
func TestMultiClientDegradation(t *testing.T) {
	perf := map[int]float64{}
	util := map[int]float64{}
	for _, c := range []int{1, 16} {
		res := runOne(t, Config{
			Server: machine.MustCatalog("j90"), Mode: TaskParallel,
			Net: netmodel.LANJ90(c), Workload: Linpack, N: 1000,
			Duration: 1200, Seed: 5,
		})
		perf[c] = meanPerf(res)
		util[c] = res.CPUUtil
	}
	ratio := perf[1] / perf[16]
	if ratio < 2.5 || ratio > 8 {
		t.Errorf("c=1/c=16 perf ratio = %.1f (%.1f vs %.1f), want 2.5–8", ratio, perf[1], perf[16])
	}
	if util[16] < 90 {
		t.Errorf("c=16 utilization = %.1f%%, want ≥ 90", util[16])
	}
}

// TestDataParallelEdgeSmallC checks §4.2.1: the 4-PE version has a
// substantial edge for small c and almost none for large c (rows
// "Table 4 · n=1000 c=1 · perf 4-PE / 1-PE" and its c=16 twin).
func TestDataParallelEdgeSmallC(t *testing.T) {
	perf := func(mode Mode, c int) float64 {
		res := runOne(t, Config{
			Server: machine.MustCatalog("j90"), Mode: mode,
			Net: netmodel.LANJ90(c), Workload: Linpack, N: 1000,
			Duration: 1200, Seed: 11,
		})
		return meanPerf(res)
	}
	edge1 := perf(DataParallel, 1) / perf(TaskParallel, 1)
	edge16 := perf(DataParallel, 16) / perf(TaskParallel, 16)
	if edge1 < 1.25 {
		t.Errorf("4-PE edge at c=1 = %.2f, want ≥ 1.25", edge1)
	}
	if edge16 > 1.25 {
		t.Errorf("4-PE edge at c=16 = %.2f, want ≤ 1.25", edge16)
	}
}

// TestWANThroughputCollapse checks §4.2.2: single-site WAN throughput
// collapses with client count while server CPU stays lightly used (rows
// "Table 6 · n=1000 c=1 · tput MB/s", "Table 6 · n=1000 · tput c=1 /
// c=16" and "Table 6 · n=1000 c=16 · CPU %").
func TestWANThroughputCollapse(t *testing.T) {
	res1 := runOne(t, Config{
		Server: machine.MustCatalog("j90"), Mode: TaskParallel,
		Net: netmodel.SingleSiteWAN(1), Workload: Linpack, N: 1000,
		Duration: 1800, Seed: 9,
	})
	res16 := runOne(t, Config{
		Server: machine.MustCatalog("j90"), Mode: TaskParallel,
		Net: netmodel.SingleSiteWAN(16), Workload: Linpack, N: 1000,
		Duration: 1800, Seed: 9,
	})
	t1, t16 := meanThroughput(res1), meanThroughput(res16)
	if t1 < 0.08 || t1 > 0.2 {
		t.Errorf("c=1 WAN throughput = %.3f MB/s, want 0.08–0.2", t1)
	}
	if ratio := t1 / t16; ratio < 6 || ratio > 25 {
		t.Errorf("throughput collapse ratio = %.1f (%.3f→%.3f), want 6–25", ratio, t1, t16)
	}
	if res16.CPUUtil > 25 {
		t.Errorf("c=16 WAN CPU = %.1f%%, want ≤ 25", res16.CPUUtil)
	}
}

// TestCallInvariants is a property over a busy mixed run: timestamps
// are monotone and metrics non-negative.
func TestCallInvariants(t *testing.T) {
	res := runOne(t, Config{
		Server: machine.MustCatalog("j90"), Mode: DataParallel,
		Net: netmodel.LANJ90(8), Workload: Linpack, N: 600,
		Duration: 600, Seed: 21,
	})
	for i := range res.Calls {
		c := &res.Calls[i]
		if !(c.Submit <= c.Enqueue && c.Enqueue <= c.Dequeue && c.Dequeue <= c.Complete) {
			t.Fatalf("call %d timestamps not monotone: %+v", i, c)
		}
		if c.CommSec < 0 || c.CommSec > c.TotalSec() {
			t.Fatalf("call %d comm time %g outside total %g", i, c.CommSec, c.TotalSec())
		}
		if c.PerfMflops() <= 0 || c.ThroughputMBps() <= 0 {
			t.Fatalf("call %d has non-positive metrics", i)
		}
	}
}

// TestEchoThroughputSaturation traces the Figure 5 shape: throughput
// rises with message size and saturates near the J90 path capacity
// (rows "Fig 5 · … → J90 · tput at 8 MiB, MB/s").
func TestEchoThroughputSaturation(t *testing.T) {
	tp := func(bytes float64) float64 {
		res := runOne(t, Config{
			Server: machine.MustCatalog("j90"),
			Net:    netmodel.LANJ90(1), Workload: Echo, EchoBytes: bytes,
			Duration: 600, Seed: 23,
		})
		return meanThroughput(res)
	}
	small := tp(8 << 10)
	big := tp(4 << 20)
	if small > big {
		t.Errorf("throughput not rising with size: %.2f vs %.2f", small, big)
	}
	if big < 1.8 || big > 2.7 {
		t.Errorf("large-message throughput %.2f MB/s, want 1.8–2.7", big)
	}
}
