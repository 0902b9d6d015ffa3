package experiments

import "fmt"

// This file holds every number the paper publishes that the
// reproduction is compared with: each cell of Tables 2–8 and each
// quantified claim of Figures 3/4/5/7/8/10/11 quoted in EXPERIMENTS.md,
// cited by artifact, row and column. No other file holds a value the
// model is compared with (internal/machine and internal/netmodel hold
// the single-client inputs the models are calibrated to, which the
// Calibration and Table 2 rows check): the experiments print their
// "(paper: …)" notes from here, and TestPaperAgreement compares every
// cell with the model's value and writes the ledger EXPERIMENTS.md's
// paper → measured tables are generated from.

// A span is a published value (Lo == Hi) or a published range.
type span struct{ Lo, Hi float64 }

func pt(v float64) span { return span{v, v} }

func (s span) String() string {
	if s.Lo == s.Hi {
		return fmt.Sprintf("%g", s.Lo)
	}
	return fmt.Sprintf("%g~%g", s.Lo, s.Hi)
}

// ratio is how far v lies from the span: v/Lo below it, v/Hi above it,
// and 1 inside it.
func (s span) ratio(v float64) float64 {
	switch {
	case v < s.Lo:
		return v / s.Lo
	case v > s.Hi:
		return v / s.Hi
	}
	return 1
}

// A cell is one row of the agreement ledger.
type cell struct {
	// cite is "artifact · row · column".
	cite string
	// paper is the published value or range. The zero span marks a claim
	// the paper states only in words; band then bounds the model's value
	// itself rather than its ratio to the paper.
	paper span
	// num and den, when set, cite two other rows: the model's value is
	// their quotient, and so is the paper's unless paper is set.
	num, den string
	// band bounds the ratio of the model's value to the paper's. A band
	// starts at the value the model gave when the row was added; it may
	// narrow or move toward 1, never widen.
	band span
}

// The published values the experiments' notes quote.
var (
	fig3Crossover    = span{200, 400}
	fig4CrossoverOpt = span{800, 1000}
	fig4CrossoverStd = span{400, 600}
	fig5J90          = pt(2)
	fig5SparcAlpha   = pt(3.5)
	fig5SameArch     = pt(6)
	fig10DegrC1      = span{9, 18}
	fig10DegrC4      = span{18, 44}
	fig10CPUC4       = span{27, 34}
	table8Perf       = pt(0.167)
	table8CPU        = pt(100)
)

func fig5Note() string {
	return fmt.Sprintf("(paper: J90 lines saturate ≈%v MB/s, SPARC→Alpha ≈%v, same-arch ≈%v;\n"+
		" Ninf_call reaches nearly FTP throughput — XDR overhead is minor)\n", fig5J90, fig5SparcAlpha, fig5SameArch)
}

func fig10Note() string {
	return fmt.Sprintf("(paper: Ocha-U degradation %v%% at c=1×4 and %v%% at c=4×4 vs Ocha-U alone;\n"+
		" aggregate bandwidth from 4 sites ≫ single site; J90 CPU ≈ %v%% at c=4×4)\n", fig10DegrC1, fig10DegrC4, fig10CPUC4)
}

func table8Note() string {
	return fmt.Sprintf("(paper: perf ≈%v Mops flat to c=4, halves at c=8, quarters at c=16;\n"+
		" LAN ≈ WAN throughout; CPU saturates at %v%% from c=4 on)\n", table8Perf, table8CPU)
}

const fig11Note = "\n(paper: almost linear speedup for classes A and B; significant slowdown\n" +
	" for the small sample size, caused by the Java metaserver's per-call\n" +
	" scheduling and distribution overhead)\n"

const smpThreadsNote = "\n(paper: 12-thread libraries slow down notably as c grows on Solaris 2.5 —\n" +
	" thread switching, cache and TLB misses — so the optimal thread count must\n" +
	" shrink with the number of clients; the last row shows exactly that)\n"

// paperCells is the ledger, each artifact's rows together. A load is what
// ninfsim.sampleLoad reports: the OS baseline plus computing processes
// plus transferring ones weighted by their share of the XDR decoder.
var paperCells = []cell{
	// §3.2 and §4.1: the anchors the machine and network models are
	// calibrated to.
	{"Calibration · J90 Local, 4 PEs, n=1600 · perf Mflops", pt(600), "", "", span{0.926, 0.965}},
	{"Calibration · Ocha-U → ETL path · bandwidth MB/s", pt(0.17), "", "", span{0.98, 1.02}},

	// Table 2: client → server FTP throughput, which netmodel takes as
	// each LAN pair's capacity.
	{"Table 2 · SuperSPARC → UltraSPARC · FTP MB/s", pt(4.0), "", "", span{0.98, 1.02}},
	{"Table 2 · SuperSPARC → Alpha · FTP MB/s", pt(4.0), "", "", span{0.98, 1.02}},
	{"Table 2 · SuperSPARC → Cray J90 · FTP MB/s", pt(2.8), "", "", span{0.98, 1.02}},
	{"Table 2 · UltraSPARC → Alpha · FTP MB/s", pt(7.4), "", "", span{0.98, 1.02}},
	{"Table 2 · UltraSPARC → Cray J90 · FTP MB/s", pt(2.7), "", "", span{0.98, 1.02}},
	{"Table 2 · Alpha → Cray J90 · FTP MB/s", pt(2.9), "", "", span{0.98, 1.02}},

	// Figure 3: single-client LAN Linpack, SPARC clients.
	{"Fig 3 · SuperSPARC Local, n=1600 · perf Mflops", pt(10), "", "", span{1.05, 1.1}},
	{"Fig 3 · UltraSPARC Local, n=1600 · perf Mflops", pt(35), "", "", span{1, 1.05}},
	{"Fig 3 · SuperSPARC → UltraSPARC · crossover n", fig3Crossover, "", "", span{1, 1}},
	{"Fig 3 · SuperSPARC → Alpha · crossover n", fig3Crossover, "", "", span{0.49, 0.51}},
	{"Fig 3 · SuperSPARC → Cray J90 · crossover n", fig3Crossover, "", "", span{1, 1}},
	{"Fig 3 · UltraSPARC → Alpha · crossover n", fig3Crossover, "", "", span{1, 1}},
	{"Fig 3 · UltraSPARC → Cray J90 · crossover n", fig3Crossover, "", "", span{1, 1}},
	{"Fig 3 · n=1600 · perf UltraSPARC→J90 / SuperSPARC→J90 (both near J90 rates)", span{}, "", "", span{0.957, 0.997}},
	{"Fig 3 · every Ninf_call series · perf rise over n, smallest step ratio", span{}, "", "", span{1, 1.03}},

	// Figure 4: single-client LAN Linpack, Alpha client.
	{"Fig 4 · Alpha → J90 vs optimized Local · crossover n", fig4CrossoverOpt, "", "", span{0.735, 0.765}},
	{"Fig 4 · Alpha → J90 vs standard Local · crossover n", fig4CrossoverStd, "", "", span{1, 1}},
	{"Fig 4 · n=1600 · Local optimized / standard", pt(2), "", "", span{0.914, 0.952}},

	// Figure 5 and Table 2: Ninf_call throughput against message size;
	// "nearly FTP throughput" is a ratio of 1.
	{"Fig 5 · supersparc → j90 · tput at 8 MiB, MB/s", fig5J90, "", "", span{1.16, 1.22}},
	{"Fig 5 · ultrasparc → j90 · tput at 8 MiB, MB/s", fig5J90, "", "", span{1.12, 1.17}},
	{"Fig 5 · alpha → j90 · tput at 8 MiB, MB/s", fig5J90, "", "", span{1.2, 1.26}},
	{"Fig 5 · supersparc → alpha · tput at 8 MiB, MB/s", fig5SparcAlpha, "", "", span{0.95, 0.99}},
	{"Fig 5 · ultrasparc → ultrasparc · tput at 8 MiB, MB/s", fig5SameArch, "", "", span{1.02, 1.07}},
	{"Fig 5 · supersparc → j90 · tput at 8 MiB / FTP", pt(1), "", "", span{0.832, 0.867}},
	{"Fig 5 · ultrasparc → j90 · tput at 8 MiB / FTP", pt(1), "", "", span{0.832, 0.867}},
	{"Fig 5 · alpha → j90 · tput at 8 MiB / FTP", pt(1), "", "", span{0.832, 0.867}},
	{"Fig 5 · supersparc → alpha · tput at 8 MiB / FTP", pt(1), "", "", span{0.831, 0.866}},
	{"Fig 5 · ultrasparc → alpha · tput at 8 MiB / FTP", pt(1), "", "", span{0.831, 0.866}},
	{"Fig 5 · ultrasparc → ultrasparc · tput at 8 MiB / FTP", pt(1), "", "", span{0.831, 0.866}},
	{"Fig 5 · supersparc → j90 · tput rise, smallest step ratio", span{}, "", "", span{1, 1.03}},
	{"Fig 5 · ultrasparc → j90 · tput rise, smallest step ratio", span{}, "", "", span{1, 1.03}},
	{"Fig 5 · alpha → j90 · tput rise, smallest step ratio", span{}, "", "", span{1, 1.03}},
	{"Fig 5 · supersparc → alpha · tput rise, smallest step ratio", span{}, "", "", span{1, 1.03}},
	{"Fig 5 · ultrasparc → alpha · tput rise, smallest step ratio", span{}, "", "", span{1, 1.03}},
	{"Fig 5 · ultrasparc → ultrasparc · tput rise, smallest step ratio", span{}, "", "", span{1, 1.03}},

	// Table 3: multi-client LAN Linpack, 1-PE task-parallel J90.
	{"Table 3 · n=600 c=1 · perf Mflops", pt(71.2), "", "", span{0.958, 0.998}},
	{"Table 3 · n=600 c=2 · perf Mflops", pt(69.6), "", "", span{0.97, 1.02}},
	{"Table 3 · n=600 c=4 · perf Mflops", pt(67.1), "", "", span{0.888, 0.925}},
	{"Table 3 · n=600 c=8 · perf Mflops", pt(49.0), "", "", span{1.01, 1.06}},
	{"Table 3 · n=600 c=16 · perf Mflops", pt(21.3), "", "", span{1.01, 1.06}},
	{"Table 3 · n=1000 c=1 · perf Mflops", pt(93.4), "", "", span{0.999, 1.05}},
	{"Table 3 · n=1000 c=2 · perf Mflops", pt(89.9), "", "", span{1, 1.05}},
	{"Table 3 · n=1000 c=4 · perf Mflops", pt(81.4), "", "", span{0.991, 1.04}},
	{"Table 3 · n=1000 c=8 · perf Mflops", pt(46.5), "", "", span{1.19, 1.24}},
	{"Table 3 · n=1000 c=16 · perf Mflops", pt(21.1), "", "", span{1.13, 1.19}},
	{"Table 3 · n=1400 c=1 · perf Mflops", pt(113.65), "", "", span{0.96, 1}},
	{"Table 3 · n=1400 c=2 · perf Mflops", pt(110.5), "", "", span{0.957, 0.997}},
	{"Table 3 · n=1400 c=4 · perf Mflops", pt(93.4), "", "", span{1.06, 1.11}},
	{"Table 3 · n=1400 c=8 · perf Mflops", pt(50.1), "", "", span{1.27, 1.33}},
	{"Table 3 · n=1400 c=16 · perf Mflops", pt(23.9), "", "", span{1.34, 1.4}},
	{"Table 3 · n=600 c=1 · CPU %", pt(12.6), "", "", span{1.29, 1.36}},
	{"Table 3 · n=1000 c=4 · CPU %", pt(76.0), "", "", span{1.12, 1.17}},
	{"Table 3 · n=1000 c=8 · CPU %", pt(100), "", "", span{0.98, 1.02}},
	{"Table 3 · n=1000 c=16 · CPU %", pt(100), "", "", span{0.98, 1.02}},
	{"Table 3 · n=1400 c=1 · CPU %", pt(24.27), "", "", span{1.25, 1.31}},
	{"Table 3 · n=1400 c=1 · load (computing + transfer-weighted)", pt(1.19), "", "", span{0.797, 0.831}},
	{"Table 3 · n=600 c=16 · load (computing + transfer-weighted)", span{13, 17}, "", "", span{0.69, 0.719}},
	{"Table 3 · n=1000 c=16 · load (computing + transfer-weighted)", span{13, 17}, "", "", span{1, 1}},
	{"Table 3 · n=1400 c=16 · load (computing + transfer-weighted)", span{13, 17}, "", "", span{1, 1}},
	{"Table 3 · n=600 c=1 · tput MB/s", pt(2.5), "", "", span{0.974, 1.02}},
	{"Table 3 · n=1000 c=1 · tput MB/s", pt(2.5), "", "", span{0.978, 1.02}},
	{"Table 3 · n=1400 c=1 · tput MB/s", pt(2.5), "", "", span{0.979, 1.02}},
	{"Table 3 · n=600 c=16 · tput MB/s", span{0.51, 0.86}, "", "", span{1, 1}},
	{"Table 3 · n=1000 c=16 · tput MB/s", span{0.51, 0.86}, "", "", span{0.677, 0.706}},
	{"Table 3 · n=1400 c=16 · tput MB/s", span{0.51, 0.86}, "", "", span{0.784, 0.817}},
	{"Table 3 · every cell · largest response s", pt(5), "", "", span{0.993, 1.04}},
	{"Table 3 · n=600 · perf c=1 / c=16", span{}, "Table 3 · n=600 c=1 · perf Mflops", "Table 3 · n=600 c=16 · perf Mflops", span{0.929, 0.968}},
	{"Table 3 · n=1000 · perf c=1 / c=16", span{}, "Table 3 · n=1000 c=1 · perf Mflops", "Table 3 · n=1000 c=16 · perf Mflops", span{0.859, 0.895}},
	{"Table 3 · n=1400 · perf c=1 / c=16", span{}, "Table 3 · n=1400 c=1 · perf Mflops", "Table 3 · n=1400 c=16 · perf Mflops", span{0.701, 0.73}},
	{"Table 3 · c=1 · perf n=1400 / n=600", span{}, "Table 3 · n=1400 c=1 · perf Mflops", "Table 3 · n=600 c=1 · perf Mflops", span{0.981, 1.03}},

	// Table 4: multi-client LAN Linpack, 4-PE data-parallel J90.
	{"Table 4 · n=1400 c=1 · perf Mflops", pt(193), "", "", span{0.944, 0.984}},
	{"Table 4 · n=1400 c=16 · perf Mflops", pt(23.3), "", "", span{1.38, 1.44}},
	{"Table 4 · n=600 c=16 · load (computing + transfer-weighted)", pt(20.0), "", "", span{0.857, 0.893}},
	{"Table 4 · n=1400 c=16 · load (computing + transfer-weighted)", pt(30.3), "", "", span{0.917, 0.956}},
	{"Table 4 · n=1400 c=1 · perf 4-PE / 1-PE", span{}, "Table 4 · n=1400 c=1 · perf Mflops", "Table 3 · n=1400 c=1 · perf Mflops", span{0.964, 1.01}},
	{"Table 4 · n=1400 c=16 · perf 4-PE / 1-PE", span{}, "Table 4 · n=1400 c=16 · perf Mflops", "Table 3 · n=1400 c=16 · perf Mflops", span{1, 1.05}},
	{"Table 4 · n=1000 c=1 · perf 4-PE / 1-PE", pt(1.5), "Table 4 · n=1000 c=1 · perf Mflops", "Table 3 · n=1000 c=1 · perf Mflops", span{0.985, 1.03}},
	{"Table 4 · n=1000 c=16 · perf 4-PE / 1-PE", pt(1.0), "Table 4 · n=1000 c=16 · perf Mflops", "Table 3 · n=1000 c=16 · perf Mflops", span{0.996, 1.04}},

	// Table 5: multi-client LAN Linpack on the 16-PE SuperSPARC SMP.
	{"Table 5 · n=600 c=4 · perf Mflops", pt(3.80), "", "", span{1.18, 1.24}},
	{"Table 5 · n=600 c=8 · perf Mflops", pt(3.51), "", "", span{1.23, 1.29}},
	{"Table 5 · n=600 c=16 · perf Mflops", pt(2.81), "", "", span{1.32, 1.39}},
	{"Table 5 · n=600 c=16 · CPU %", pt(89.9), "", "", span{0.943, 0.983}},
	{"Table 5 · n=600 c=4 · tput MB/s", span{0.37, 0.43}, "", "", span{2.08, 2.18}},
	{"Table 5 · n=600 c=8 · tput MB/s", span{0.37, 0.43}, "", "", span{1.69, 1.77}},
	{"Table 5 · n=600 c=16 · tput MB/s", span{0.37, 0.43}, "", "", span{1, 1}},

	// Tables 6/7: single-site WAN over the 0.17 MB/s Ocha-U path.
	{"Table 6 · n=1000 c=1 · perf Mflops", pt(9.3), "", "", span{1.37, 1.44}},
	{"Table 6 · n=1000 c=1 · tput MB/s", pt(0.123), "", "", span{1.35, 1.41}},
	{"Table 6 · n=1000 c=16 · tput MB/s", pt(0.011), "", "", span{0.962, 1.01}},
	{"Table 6 · n=1000 c=16 · CPU %", pt(8), "", "", span{1.12, 1.18}},
	{"Table 6 · n=600 c=16 · load (computing + transfer-weighted)", pt(0.5), "", "", span{1.87, 1.95}},
	{"Table 6 · n=1000 c=16 · load (computing + transfer-weighted)", pt(0.5), "", "", span{1.96, 2.05}},
	{"Table 6 · n=1400 c=16 · load (computing + transfer-weighted)", pt(0.5), "", "", span{2.19, 2.29}},
	{"Table 6 · n=1000 · tput c=1 / c=16", span{}, "Table 6 · n=1000 c=1 · tput MB/s", "Table 6 · n=1000 c=16 · tput MB/s", span{1.37, 1.44}},
	{"Table 6 · n=1000 c=1 · perf LAN (Table 3) / WAN", span{}, "Table 3 · n=1000 c=1 · perf Mflops", "Table 6 · n=1000 c=1 · perf Mflops", span{0.71, 0.74}},
	{"Table 7 · n=1000 c=16 · CPU %", pt(8), "", "", span{1.19, 1.25}},
	{"Table 7 · n=600 c=16 · load (computing + transfer-weighted)", pt(0.5), "", "", span{2.97, 3.1}},
	{"Table 7 · n=1000 c=16 · load (computing + transfer-weighted)", pt(0.5), "", "", span{3.12, 3.26}},
	{"Table 7 · n=1400 c=16 · load (computing + transfer-weighted)", pt(0.5), "", "", span{3.9, 4.07}},

	// Figures 7/8: the mean-perf surfaces of Tables 3/4 and 6/7.
	{"Fig 7 · c ≤ 2, every n · perf 4-PE / 1-PE, smallest (4-PE ahead)", span{}, "", "", span{1.24, 1.31}},
	{"Fig 7 · c=16, every n · perf 4-PE / 1-PE, largest (converged)", pt(1), "", "", span{1, 1.05}},
	{"Fig 8 · every (n, c) · perf 4-PE / 1-PE, largest", pt(1), "", "", span{1.04, 1.09}},
	{"Fig 8 · every (n, c) · perf 4-PE / 1-PE, smallest", pt(1), "", "", span{0.978, 1.02}},

	// Figure 10: four sites against one (§4.2.3).
	{"Fig 10 · n=600 c=1×4 · Ocha-U tput loss %", fig10DegrC1, "", "", span{0.757, 0.789}},
	{"Fig 10 · n=1000 c=1×4 · Ocha-U tput loss %", fig10DegrC1, "", "", span{1, 1}},
	{"Fig 10 · n=1400 c=1×4 · Ocha-U tput loss %", fig10DegrC1, "", "", span{1, 1}},
	{"Fig 10 · n=600 c=4×4 · Ocha-U tput loss %", fig10DegrC4, "", "", span{0.851, 0.886}},
	{"Fig 10 · n=1000 c=4×4 · Ocha-U tput loss %", fig10DegrC4, "", "", span{0.788, 0.821}},
	{"Fig 10 · n=1400 c=4×4 · Ocha-U tput loss %", fig10DegrC4, "", "", span{0.732, 0.763}},
	{"Fig 10 · n=600 c=4×4 · CPU %", fig10CPUC4, "", "", span{0.785, 0.818}},
	{"Fig 10 · n=1000 c=4×4 · CPU %", fig10CPUC4, "", "", span{0.893, 0.93}},
	{"Fig 10 · n=1400 c=4×4 · CPU %", fig10CPUC4, "", "", span{0.975, 1.02}},
	{"Fig 10 · n=1000 · aggregate MB/s, 4 sites c=1×4 / one site c=4 (≫)", span{}, "", "", span{3.09, 3.22}},
	{"Fig 10 · n=1000 · per-client perf, 4 sites c=1×4 / one site c=4", span{}, "", "", span{3.28, 3.42}},

	// Table 8: multi-client EP (2^24 trials) on the J90.
	{"Table 8 · LAN c=1 · perf Mops", table8Perf, "", "", span{0.985, 1.03}},
	{"Table 8 · LAN c=2 · perf Mops", table8Perf, "", "", span{0.985, 1.03}},
	{"Table 8 · LAN c=4 · perf Mops", table8Perf, "", "", span{0.985, 1.03}},
	{"Table 8 · LAN c=8 · perf Mops", pt(0.084), "", "", span{1, 1.05}},
	{"Table 8 · LAN c=16 · perf Mops", pt(0.042), "", "", span{1.01, 1.06}},
	{"Table 8 · WAN c=1 · perf Mops", pt(0.168), "", "", span{0.979, 1.02}},
	{"Table 8 · LAN c=4 · CPU %", table8CPU, "", "", span{0.98, 1.02}},
	{"Table 8 · LAN c=8 · CPU %", table8CPU, "", "", span{0.98, 1.02}},
	{"Table 8 · LAN c=16 · CPU %", table8CPU, "", "", span{0.98, 1.02}},
	{"Table 8 · WAN c=4 · CPU %", table8CPU, "", "", span{0.98, 1.02}},
	{"Table 8 · WAN c=8 · CPU %", table8CPU, "", "", span{0.98, 1.02}},
	{"Table 8 · WAN c=16 · CPU %", table8CPU, "", "", span{0.98, 1.02}},
	{"Table 8 · LAN c=1 · load (computing + transfer-weighted)", pt(1), "", "", span{1.3, 1.36}},
	{"Table 8 · LAN c=2 · load (computing + transfer-weighted)", pt(2), "", "", span{1.12, 1.18}},
	{"Table 8 · LAN c=4 · load (computing + transfer-weighted)", pt(4), "", "", span{1.04, 1.1}},
	{"Table 8 · LAN c=8 · load (computing + transfer-weighted)", pt(8), "", "", span{1.01, 1.06}},
	{"Table 8 · LAN c=16 · load (computing + transfer-weighted)", pt(16), "", "", span{0.996, 1.04}},
	{"Table 8 · c=1 · perf WAN / LAN", span{}, "Table 8 · WAN c=1 · perf Mops", "Table 8 · LAN c=1 · perf Mops", span{0.973, 1.02}},
	{"Table 8 · LAN · perf c=4 / c=1 (flat)", pt(1), "Table 8 · LAN c=4 · perf Mops", "Table 8 · LAN c=1 · perf Mops", span{0.979, 1.02}},
	{"Table 8 · LAN · perf c=1 / c=8 (halves)", span{}, "Table 8 · LAN c=1 · perf Mops", "Table 8 · LAN c=8 · perf Mops", span{0.964, 1.01}},

	// Figure 11: metaserver EP on the 32-node Alpha cluster; linear
	// speedup at p=32 is 32.
	{"Fig 11 · class A 2^28 · speedup at p=32", pt(32), "", "", span{0.621, 0.647}},
	{"Fig 11 · class B 2^30 · speedup at p=32", pt(32), "", "", span{0.856, 0.892}},
	{"Fig 11 · sample 2^24 · speedup p=32 / p=8 (slowdown)", span{}, "", "", span{0.61, 0.636}},
}
