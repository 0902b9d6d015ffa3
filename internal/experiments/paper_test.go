package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ninf/internal/machine"
	"ninf/internal/netmodel"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.golden and EXPERIMENTS.md's ledger blocks")

const (
	ledgerGolden  = "testdata/ledger.golden"
	experimentsMD = "../../EXPERIMENTS.md"
	loadCol       = "load (computing + transfer-weighted)"
)

// measure runs every simulator experiment the ledger cites at full
// length and seed 1, as cmd/ninfbench does, and returns the model's
// value under each cite.
func measure(t *testing.T) map[string]float64 {
	opts := Options{Seed: 1}
	got := map[string]float64{}
	var mu sync.Mutex
	put := func(v float64, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		got[fmt.Sprintf(format, args...)] = v
	}
	tables := map[int]*linpackTable{3: table3, 4: table4, 5: table5, 6: table6, 7: table7}
	jobs := []func() error{
		func() error {
			put(machine.MustCatalog("j90").LocalMflopsAll(1600), "Calibration · J90 Local, 4 PEs, n=1600 · perf Mflops")
			put(netmodel.SingleSiteWAN(1).Links[0].MBps, "Calibration · Ocha-U → ETL path · bandwidth MB/s")
			for _, p := range [][2]string{{"supersparc", "ultrasparc"}, {"supersparc", "alpha"}, {"supersparc", "j90"},
				{"ultrasparc", "alpha"}, {"ultrasparc", "j90"}, {"alpha", "j90"}} {
				ftp, err := netmodel.PairFTPMBps(p[0], p[1])
				if err != nil {
					return err
				}
				put(ftp, "Table 2 · %s → %s · FTP MB/s", machine.MustCatalog(p[0]).Name, machine.MustCatalog(p[1]).Name)
			}
			speedup := func(m, p int) float64 { return metaserverEPTime(m, 1) / metaserverEPTime(m, p) }
			put(speedup(28, 32), "Fig 11 · class A 2^28 · speedup at p=32")
			put(speedup(30, 32), "Fig 11 · class B 2^30 · speedup at p=32")
			put(speedup(24, 32)/speedup(24, 8), "Fig 11 · sample 2^24 · speedup p=32 / p=8 (slowdown)")
			return nil
		},
		func() error {
			ns := sweepNs(opts)
			last := len(ns) - 1
			j90, step := map[string]float64{}, math.Inf(1)
			for _, p := range fig3Pairs {
				cm := machine.MustCatalog(p.client)
				put(cm.LocalMflops(ns[last]), "Fig 3 · %s Local, n=%d · perf Mflops", cm.Name, ns[last])
				for _, server := range p.servers {
					remote, err := singleClientSeries(opts, p.client, server, ns)
					if err != nil {
						return err
					}
					if x := crossover(ns, remote, cm.LocalMflops); x > 0 {
						put(float64(x), "Fig 3 · %s → %s · crossover n", cm.Name, machine.MustCatalog(server).Name)
					}
					if server == "j90" {
						j90[p.client] = remote[last]
					}
					for i := 1; i < len(remote); i++ {
						step = min(step, remote[i]/remote[i-1])
					}
				}
			}
			put(step, "Fig 3 · every Ninf_call series · perf rise over n, smallest step ratio")
			put(j90["ultrasparc"]/j90["supersparc"], "Fig 3 · n=%d · perf UltraSPARC→J90 / SuperSPARC→J90 (both near J90 rates)", ns[last])
			return nil
		},
		func() error {
			ns := sweepNs(opts)
			remote, err := singleClientSeries(opts, "alpha", "j90", ns)
			if err != nil {
				return err
			}
			opt, std := machine.MustCatalog("alpha"), machine.MustCatalog("alpha-std")
			if x := crossover(ns, remote, opt.LocalMflops); x > 0 {
				put(float64(x), "Fig 4 · Alpha → J90 vs optimized Local · crossover n")
			}
			if x := crossover(ns, remote, std.LocalMflops); x > 0 {
				put(float64(x), "Fig 4 · Alpha → J90 vs standard Local · crossover n")
			}
			put(opt.LocalMflops(1600)/std.LocalMflops(1600), "Fig 4 · n=1600 · Local optimized / standard")
			return nil
		},
		func() error {
			rows, err := fig5Rows(opts)
			for _, r := range rows {
				pair := r.client + " → " + r.server
				top := r.tput[len(r.tput)-1]
				put(top, "Fig 5 · %s · tput at 8 MiB, MB/s", pair)
				put(top/r.ftp, "Fig 5 · %s · tput at 8 MiB / FTP", pair)
				step := math.Inf(1)
				for i := 1; i < len(r.tput); i++ {
					step = min(step, r.tput[i]/r.tput[i-1])
				}
				put(step, "Fig 5 · %s · tput rise, smallest step ratio", pair)
			}
			return err
		},
		func() error {
			rows, err := fig10Rows(opts)
			at := map[[2]int]siteRow{}
			for _, r := range rows {
				m := r.multi
				at[[2]int{m.N, m.C}] = r
				put(r.degr, "Fig 10 · n=%d c=%d×4 · Ocha-U tput loss %%", m.N, m.C)
				put(m.CPUUtil, "Fig 10 · n=%d c=%d×4 · CPU %%", m.N, m.C)
			}
			four, one := at[[2]int{1000, 1}].multi, at[[2]int{1000, 4}].alone
			put(four.Aggr/one.Aggr, "Fig 10 · n=1000 · aggregate MB/s, 4 sites c=1×4 / one site c=4 (≫)")
			put(four.Perf.Mean()/one.Perf.Mean(), "Fig 10 · n=1000 · per-client perf, 4 sites c=1×4 / one site c=4")
			return err
		},
		func() error {
			rows, err := epRows(opts)
			for e, env := range epEnvs {
				for _, r := range rows[e] {
					put(r.Perf.Mean(), "Table 8 · %s c=%d · perf Mops", env.name, r.C)
					put(r.CPUUtil, "Table 8 · %s c=%d · CPU %%", env.name, r.C)
					put(r.Load, "Table 8 · %s c=%d · %s", env.name, r.C, loadCol)
				}
			}
			return err
		},
	}
	for k, tab := range tables {
		jobs = append(jobs, func() error {
			rows, err := tab.rows(opts)
			resp := 0.0
			for _, r := range rows {
				put(r.Perf.Mean(), "Table %d · n=%d c=%d · perf Mflops", k, r.N, r.C)
				put(r.CPUUtil, "Table %d · n=%d c=%d · CPU %%", k, r.N, r.C)
				put(r.Load, "Table %d · n=%d c=%d · %s", k, r.N, r.C, loadCol)
				put(r.Tput.Mean(), "Table %d · n=%d c=%d · tput MB/s", k, r.N, r.C)
				resp = max(resp, r.Resp.Max())
			}
			put(resp, "Table %d · every cell · largest response s", k)
			return err
		})
	}

	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = job()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Figures 7/8 are the mean-perf columns of Tables 3/4 and 6/7.
	edge := func(task, data int, keep func(c int) bool) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, n := range tableNs {
			for _, c := range tableCs {
				if keep(c) {
					q := got[fmt.Sprintf("Table %d · n=%d c=%d · perf Mflops", data, n, c)] /
						got[fmt.Sprintf("Table %d · n=%d c=%d · perf Mflops", task, n, c)]
					lo, hi = min(lo, q), max(hi, q)
				}
			}
		}
		return lo, hi
	}
	got["Fig 7 · c ≤ 2, every n · perf 4-PE / 1-PE, smallest (4-PE ahead)"], _ = edge(3, 4, func(c int) bool { return c <= 2 })
	_, got["Fig 7 · c=16, every n · perf 4-PE / 1-PE, largest (converged)"] = edge(3, 4, func(c int) bool { return c == 16 })
	lo, hi := edge(6, 7, func(int) bool { return true })
	got["Fig 8 · every (n, c) · perf 4-PE / 1-PE, largest"] = hi
	got["Fig 8 · every (n, c) · perf 4-PE / 1-PE, smallest"] = lo
	return got
}

// A ledgerRow is a cell beside the model's value.
type ledgerRow struct {
	cell
	paper    span    // published, or the quotient of num's and den's
	got      float64 // the model's value
	value    float64 // got's ratio to paper, or got for a claim in words
	measured bool
}

func (r *ledgerRow) ok() bool {
	return r.measured && r.value >= r.band.Lo && r.value <= r.band.Hi
}

func ledger(got map[string]float64) []ledgerRow {
	paper := map[string]span{}
	for _, c := range paperCells {
		paper[c.cite] = c.paper
	}
	rows := make([]ledgerRow, len(paperCells))
	for i, c := range paperCells {
		r := ledgerRow{cell: c, paper: c.paper}
		if c.num == "" {
			r.got, r.measured = got[c.cite]
		} else {
			n, okN := got[c.num]
			d, okD := got[c.den]
			r.got, r.measured = n/d, okN && okD && d != 0
			if p, q := paper[c.num], paper[c.den]; r.paper == (span{}) && p.Lo == p.Hi && q.Lo == q.Hi && p.Lo*q.Lo != 0 {
				r.paper = pt(p.Lo / q.Lo)
			}
		}
		r.value = r.got
		if r.paper != (span{}) {
			r.value = r.paper.ratio(r.got)
		}
		rows[i] = r
	}
	return rows
}

// artifact is the first part of a cite: the ledger's section.
func artifact(cite string) string { return strings.SplitN(cite, " · ", 2)[0] }

func num(v float64) string { return fmt.Sprintf("%.4g", v) }

// render writes the ledger golden: one markdown table per artifact, then
// the five cells farthest from the paper.
func render(rows []ledgerRow) []byte {
	var b bytes.Buffer
	for i, r := range rows {
		if i == 0 || artifact(r.cite) != artifact(rows[i-1].cite) {
			if i > 0 {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "## %s\n\n| cell | paper | model | model / paper | band |\n|---|---|---|---|---|\n", artifact(r.cite))
		}
		paper, ratio := "—", "—"
		if r.paper != (span{}) {
			paper, ratio = num(r.paper.Lo), fmt.Sprintf("%.3f", r.value)
			if r.paper.Lo != r.paper.Hi {
				paper += "~" + num(r.paper.Hi)
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %g–%g |\n",
			strings.SplitN(r.cite, " · ", 2)[1], paper, num(r.got), ratio, r.band.Lo, r.band.Hi)
	}
	b.WriteString("\n## Largest residuals\n\n| cell | paper | model | model / paper |\n|---|---|---|---|\n")
	for _, r := range worst(rows, 5) {
		fmt.Fprintf(&b, "| %s | %v | %s | %.3f |\n", r.cite, r.paper, num(r.got), r.value)
	}
	return b.Bytes()
}

// worst returns the k rows with a published value whose model / paper
// ratio is farthest from 1, by |log ratio|.
func worst(rows []ledgerRow, k int) []ledgerRow {
	var out []ledgerRow
	for _, r := range rows {
		if r.paper != (span{}) {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(math.Log(out[i].value)) > math.Abs(math.Log(out[j].value))
	})
	return out[:min(k, len(out))]
}

// TestPaperAgreement runs the simulator experiments at full length and
// holds every published cell of paper.go to its band, one subtest per
// artifact, then pins the whole ledger in testdata/ledger.golden
// (rewritten by -update).
func TestPaperAgreement(t *testing.T) {
	cited := map[string]bool{}
	for _, c := range paperCells {
		if cited[c.cite] {
			t.Errorf("%s: cited twice in paper.go", c.cite)
		}
		cited[c.cite] = true
	}
	rows := ledger(measure(t))
	for i := 0; i < len(rows); {
		name, j := artifact(rows[i].cite), i+1
		for j < len(rows) && artifact(rows[j].cite) == name {
			j++
		}
		t.Run(name, func(t *testing.T) {
			for _, r := range rows[i:j] {
				switch {
				case !r.measured:
					t.Errorf("%s: the model gives no value", r.cite)
				case !r.ok():
					t.Errorf("%s: %.4g (model %.4g, paper %v) outside band %g–%g", r.cite, r.value, r.got, r.paper, r.band.Lo, r.band.Hi)
				}
			}
		})
		i = j
	}
	for _, r := range worst(rows, 5) {
		t.Logf("residual | %s | %v | %s | %.3f |", r.cite, r.paper, num(r.got), r.value)
	}

	out := render(rows)
	if *update {
		if err := os.MkdirAll(filepath.Dir(ledgerGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		wl, ol := strings.Split(string(want), "\n"), strings.Split(string(out), "\n")
		for i := range max(len(wl), len(ol)) {
			if i >= len(wl) || i >= len(ol) || wl[i] != ol[i] {
				t.Fatalf("ledger differs from %s at line %d (rerun with -update and review the diff):\ngolden: %q\nmodel:  %q",
					ledgerGolden, i+1, at(wl, i), at(ol, i))
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

// TestExperimentsDoc holds EXPERIMENTS.md's paper → measured tables to
// the ledger golden. Each sits between a line "<!-- ledger: NAME -->"
// and "<!-- /ledger -->" and must equal the golden's "## NAME" section;
// every section appears once. -update rewrites the blocks.
func TestExperimentsDoc(t *testing.T) {
	golden, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	var names []string
	for _, s := range strings.Split("\n"+string(golden), "\n## ")[1:] {
		name, body, _ := strings.Cut(s, "\n\n")
		sections[name] = strings.TrimRight(body, "\n") + "\n"
		names = append(names, name)
	}
	doc, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	const open, end = "<!-- ledger: ", "<!-- /ledger -->"
	var out strings.Builder
	var seen []string
	rest := string(doc)
	for {
		i := strings.Index(rest, "\n"+open) + 1
		if i == 0 {
			break
		}
		name, after, _ := strings.Cut(rest[i+len(open):], " -->\n")
		body, tail, found := strings.Cut(after, end)
		if !found {
			t.Fatalf("EXPERIMENTS.md: ledger block %q is not closed", name)
		}
		want, ok := sections[name]
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md: ledger block %q names no section of %s", name, ledgerGolden)
		case slices.Contains(seen, name):
			t.Errorf("EXPERIMENTS.md: ledger block %q appears twice", name)
		case body != want && !*update:
			t.Errorf("EXPERIMENTS.md: ledger block %q differs from %s (rerun with -update)", name, ledgerGolden)
		}
		if ok {
			body = want
		}
		seen = append(seen, name)
		out.WriteString(rest[:i] + open + name + " -->\n" + body + end)
		rest = tail
	}
	out.WriteString(rest)
	for _, name := range names {
		if !slices.Contains(seen, name) {
			t.Errorf("EXPERIMENTS.md: no ledger block for %q", name)
		}
	}
	if *update && out.String() != string(doc) {
		if err := os.WriteFile(experimentsMD, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
