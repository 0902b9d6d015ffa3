package experiments

import (
	"fmt"
	"io"

	"ninf/internal/machine"
	"ninf/internal/metrics"
	"ninf/internal/netmodel"
	"ninf/internal/ninfsim"
)

// A siteRow is one Figure 10 cell: the four-site run, and beside it the
// same per-site client count at Ocha-U alone.
type siteRow struct {
	multi, alone linpackRow
	ochaTput     float64 // mean over the four-site run's Ocha-U calls
	degr         float64 // Ocha-U's throughput loss against Ocha-U alone, %
}

// fig10Rows runs Figure 10's sweep: n × clients per site.
func fig10Rows(opts Options) ([]siteRow, error) {
	var rows []siteRow
	for _, n := range []int{600, 1000, 1400} {
		for _, perSite := range []int{1, 4} {
			run := func(net netmodel.Spec) (*ninfsim.Result, error) {
				return ninfsim.Run(ninfsim.Config{
					Server: machine.MustCatalog("j90"), Mode: ninfsim.DataParallel,
					Net: net, Workload: ninfsim.Linpack, N: n,
					Duration: opts.dur(6000),
					Seed:     opts.seed() + uint64(n+perSite),
				})
			}
			multi, err := run(netmodel.MultiSiteWAN(perSite))
			if err != nil {
				return nil, err
			}
			// Baseline: the same per-site client count at Ocha-U
			// alone, for the §4.2.3 degradation comparison.
			alone, err := run(netmodel.SingleSiteWAN(perSite))
			if err != nil {
				return nil, err
			}
			row := siteRow{multi: summarize(n, perSite, multi), alone: summarize(n, perSite, alone)}
			var ocha metrics.Series
			for i := range multi.Calls {
				if multi.Calls[i].Site == "Ocha-U" {
					ocha.Add(multi.Calls[i].ThroughputMBps())
				}
			}
			row.ochaTput = ocha.Mean()
			if a := row.alone.Tput.Mean(); a > 0 {
				row.degr = (1 - row.ochaTput/a) * 100
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func init() {
	fig10 := &Experiment{
		ID:       "fig10-multisite",
		Title:    "multi-client, multi-site WAN Linpack (4 sites vs one site)",
		Artifact: "Figure 10",
	}
	fig10.Run = func(w io.Writer, opts Options) error {
		header(w, fig10)
		rows, err := fig10Rows(opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%5s %-9s | %-10s %-10s | %-10s %-10s | %-7s | %s\n",
			"n", "config", "perf[Mf]", "tput[MB/s]", "OchaU tput", "degrad.", "CPU%", "aggregate[MB/s]")
		for _, r := range rows {
			m := &r.multi
			fmt.Fprintf(w, "%5d %-9s | %-10.2f %-10.3f | %-10.3f %-9.0f%% | %-7.1f | %.3f\n",
				m.N, fmt.Sprintf("c=%d×4", m.C),
				m.Perf.Mean(), m.Tput.Mean(), r.ochaTput, r.degr, m.CPUUtil, m.Aggr)
		}
		fmt.Fprint(w, fig10Note())
		return nil
	}
	register(fig10)
}
