package experiments

import (
	"fmt"
	"io"

	"ninf/internal/machine"
	"ninf/internal/netmodel"
	"ninf/internal/ninfsim"
)

// singleClientSeries runs the §3 single-client LAN benchmark for one
// client/server pair over a sweep of matrix sizes and returns the mean
// Ninf_call performance per size.
func singleClientSeries(opts Options, client, server string, ns []int) ([]float64, error) {
	net, err := netmodel.SingleClientLAN(client, server)
	if err != nil {
		return nil, err
	}
	srv := machine.MustCatalog(server)
	// The paper registers libSci sgetrf/sgetrs on the J90, which use
	// all four processors; workstation servers have one PE anyway.
	mode := ninfsim.DataParallel
	out := make([]float64, len(ns))
	for i, n := range ns {
		res, err := ninfsim.Run(ninfsim.Config{
			Server: srv, Mode: mode, Net: net,
			Workload: ninfsim.Linpack, N: n,
			Duration: opts.dur(800),
			Seed:     opts.seed() + uint64(1000+i),
		})
		if err != nil {
			return nil, err
		}
		row := summarize(n, 1, res)
		out[i] = row.Perf.Mean()
	}
	return out, nil
}

// sweepNs is the Figure 3/4 size sweep (n = 100…1600).
func sweepNs(opts Options) []int {
	if opts.Quick {
		return []int{100, 400, 800, 1200, 1600}
	}
	ns := make([]int, 0, 16)
	for n := 100; n <= 1600; n += 100 {
		ns = append(ns, n)
	}
	return ns
}

// crossover returns the first n at which remote beats local, or -1.
func crossover(ns []int, remote []float64, local func(int) float64) int {
	for i, n := range ns {
		if remote[i] > local(n) {
			return n
		}
	}
	return -1
}

func printSeries(w io.Writer, label string, vals []float64) {
	fmt.Fprintf(w, "%-34s", label)
	for _, v := range vals {
		fmt.Fprintf(w, "%8.1f", v)
	}
	fmt.Fprintln(w)
}

// fig3Pairs are Figure 3's clients, each with the servers it calls.
var fig3Pairs = []struct {
	client  string
	servers []string
}{
	{"supersparc", []string{"ultrasparc", "alpha", "j90"}},
	{"ultrasparc", []string{"alpha", "j90"}},
}

// An echoRow is one Figure 5 line: a client → server pair's mean
// Ninf_call throughput per message size, and its Table 2 FTP rate.
type echoRow struct {
	client, server string
	tput           []float64 // MB/s, one per echoSizes entry
	ftp            float64   // MB/s
}

func echoSizes(opts Options) []float64 {
	if opts.Quick {
		return []float64{32 << 10, 512 << 10, 8 << 20}
	}
	return []float64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}
}

// fig5Rows runs the Figure 5 echo sweep over every pair.
func fig5Rows(opts Options) ([]echoRow, error) {
	var rows []echoRow
	for _, p := range [][2]string{
		{"supersparc", "j90"},
		{"ultrasparc", "j90"},
		{"alpha", "j90"},
		{"supersparc", "alpha"},
		{"ultrasparc", "alpha"},
		{"ultrasparc", "ultrasparc"},
	} {
		net, err := netmodel.SingleClientLAN(p[0], p[1])
		if err != nil {
			return nil, err
		}
		row := echoRow{client: p[0], server: p[1]}
		for _, sz := range echoSizes(opts) {
			res, err := ninfsim.Run(ninfsim.Config{
				Server: machine.MustCatalog(p[1]), Net: net,
				Workload: ninfsim.Echo, EchoBytes: sz,
				Duration: opts.dur(400),
				Seed:     opts.seed() + uint64(sz),
			})
			if err != nil {
				return nil, err
			}
			cell := summarize(0, 1, res)
			row.tput = append(row.tput, cell.Tput.Mean())
		}
		row.ftp, _ = netmodel.PairFTPMBps(p[0], p[1])
		rows = append(rows, row)
	}
	return rows, nil
}

func init() {
	fig3 := &Experiment{
		ID:       "fig3-lan-single-sparc",
		Title:    "single-client LAN Linpack, SuperSPARC/UltraSPARC clients",
		Artifact: "Figure 3",
	}
	fig3.Run = func(w io.Writer, opts Options) error {
		header(w, fig3)
		ns := sweepNs(opts)
		fmt.Fprintf(w, "%-34s", "series \\ n")
		for _, n := range ns {
			fmt.Fprintf(w, "%8d", n)
		}
		fmt.Fprintln(w)

		for _, p := range fig3Pairs {
			cm := machine.MustCatalog(p.client)
			local := make([]float64, len(ns))
			for i, n := range ns {
				local[i] = cm.LocalMflops(n)
			}
			printSeries(w, cm.Name+" Local", local)
			for _, server := range p.servers {
				remote, err := singleClientSeries(opts, p.client, server, ns)
				if err != nil {
					return err
				}
				printSeries(w, fmt.Sprintf("%s → %s Ninf_call", cm.Name, machine.MustCatalog(server).Name), remote)
				if x := crossover(ns, remote, cm.LocalMflops); x > 0 {
					fmt.Fprintf(w, "    crossover vs local at n ≈ %d (paper: %v)\n", x, fig3Crossover)
				}
			}
		}
		return nil
	}
	register(fig3)

	fig4 := &Experiment{
		ID:       "fig4-lan-single-alpha",
		Title:    "single-client LAN Linpack, Alpha client vs J90",
		Artifact: "Figure 4",
	}
	fig4.Run = func(w io.Writer, opts Options) error {
		header(w, fig4)
		ns := sweepNs(opts)
		fmt.Fprintf(w, "%-34s", "series \\ n")
		for _, n := range ns {
			fmt.Fprintf(w, "%8d", n)
		}
		fmt.Fprintln(w)

		opt := machine.MustCatalog("alpha")
		std := machine.MustCatalog("alpha-std")
		localOpt := make([]float64, len(ns))
		localStd := make([]float64, len(ns))
		for i, n := range ns {
			localOpt[i] = opt.LocalMflops(n)
			localStd[i] = std.LocalMflops(n)
		}
		printSeries(w, "Alpha Local (optimized glub4)", localOpt)
		printSeries(w, "Alpha Local (standard Linpack)", localStd)
		remote, err := singleClientSeries(opts, "alpha", "j90", ns)
		if err != nil {
			return err
		}
		printSeries(w, "Alpha → J90 Ninf_call", remote)
		if x := crossover(ns, remote, opt.LocalMflops); x > 0 {
			fmt.Fprintf(w, "    crossover vs optimized local at n ≈ %d (paper: %v)\n", x, fig4CrossoverOpt)
		}
		if x := crossover(ns, remote, std.LocalMflops); x > 0 {
			fmt.Fprintf(w, "    crossover vs standard local  at n ≈ %d (paper: %v)\n", x, fig4CrossoverStd)
		}
		return nil
	}
	register(fig4)

	fig5 := &Experiment{
		ID:       "fig5-throughput",
		Title:    "Ninf_call communication throughput vs message size, with FTP baselines",
		Artifact: "Figure 5 + Table 2",
	}
	fig5.Run = func(w io.Writer, opts Options) error {
		header(w, fig5)
		rows, err := fig5Rows(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s", "pair \\ message bytes")
		for _, sz := range echoSizes(opts) {
			fmt.Fprintf(w, "%10.0f", sz)
		}
		fmt.Fprintf(w, "%12s\n", "FTP[MB/s]")
		for _, r := range rows {
			fmt.Fprintf(w, "%-28s", r.client+" → "+r.server)
			for _, v := range r.tput {
				fmt.Fprintf(w, "%10.2f", v)
			}
			fmt.Fprintf(w, "%12.1f\n", r.ftp)
		}
		fmt.Fprint(w, fig5Note())
		return nil
	}
	register(fig5)
}
