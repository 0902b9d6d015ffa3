package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-mpp-sched", "ablation-scheduling", "ablation-smp-threads", "ablation-twophase",
		"fig10-multisite", "fig11-ep-metaserver",
		"fig3-lan-single-sparc", "fig4-lan-single-alpha", "fig5-throughput",
		"fig7-lan-surface", "fig8-wan-surface",
		"meta-ha", "multiclient-mux", "overload", "restart",
		"table3-lan-1pe", "table4-lan-4pe", "table5-lan-smp",
		"table6-wan-1pe", "table7-wan-4pe", "table8-ep",
		"wan-cache",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, err := ByID("table3-lan-1pe"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

// runQuick executes an experiment in quick mode and returns its text.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Options{Quick: true, Seed: 2}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 100 {
		t.Fatalf("%s: suspiciously short output:\n%s", id, out)
	}
	return out
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			out := runQuick(t, e.ID)
			if !strings.Contains(out, e.ID) {
				t.Errorf("output does not carry the experiment header")
			}
		})
	}
}

// quickRows runs a table sweep in quick mode, as runQuick does, and
// indexes its mean performance by (n, c).
func quickRows(t *testing.T, tab *linpackTable) map[[2]int]float64 {
	t.Helper()
	rows, err := tab.rows(Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	perf := map[[2]int]float64{}
	for _, r := range rows {
		perf[[2]int{r.N, r.C}] = r.Perf.Mean()
	}
	return perf
}

// TestTable3Shape: perf grows with n at c=1 and falls with c at fixed n
// (quick-mode twins of the ledger rows "Table 3 · c=1 · perf n=1400 /
// n=600" and "Table 3 · n=1000 · perf c=1 / c=16").
func TestTable3Shape(t *testing.T) {
	perf := quickRows(t, table3)
	if p600, p1400 := perf[[2]int{600, 1}], perf[[2]int{1400, 1}]; p1400 <= p600 {
		t.Errorf("perf(1400,1)=%.1f not above perf(600,1)=%.1f", p1400, p600)
	}
	if p1, p16 := perf[[2]int{1000, 1}], perf[[2]int{1000, 16}]; p1 < 2*p16 {
		t.Errorf("perf(1000,1)=%.1f not ≫ perf(1000,16)=%.1f", p1, p16)
	}
}

// TestTable6WANMuchSlowerThanLAN: one WAN client at n=1000 runs several
// times slower than one LAN client (the ledger holds both cells).
func TestTable6WANMuchSlowerThanLAN(t *testing.T) {
	pl := quickRows(t, table3)[[2]int{1000, 1}]
	pw := quickRows(t, table6)[[2]int{1000, 1}]
	if pl < 4*pw {
		t.Errorf("LAN %.1f vs WAN %.1f: WAN should be ~10× slower", pl, pw)
	}
}

// TestFig5Monotone: in quick mode every pair's throughput rises with
// message size and stays below its FTP baseline (quick-mode twins of the
// ledger's "Fig 5 · … · smallest step ratio" and "… / FTP" rows).
func TestFig5Monotone(t *testing.T) {
	rows, err := fig5Rows(Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Figure 5 rows")
	}
	for _, r := range rows {
		tps := r.tput
		for i := 1; i < len(tps); i++ {
			if tps[i] < tps[i-1]*0.95 {
				t.Errorf("%s → %s: throughput not monotone: %v", r.client, r.server, tps)
			}
		}
		if top := tps[len(tps)-1]; top > r.ftp*1.05 {
			t.Errorf("%s → %s: Ninf throughput %v exceeds FTP %v", r.client, r.server, top, r.ftp)
		}
	}
}
