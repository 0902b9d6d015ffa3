package experiments

import (
	"fmt"
	"io"
	"math"

	"ninf/internal/machine"
	"ninf/internal/netmodel"
	"ninf/internal/ninfsim"
)

func init() {
	table8 := &Experiment{
		ID:       "table8-ep",
		Title:    "multi-client EP on the J90, LAN and single-site WAN",
		Artifact: "Table 8",
	}
	table8.Run = func(w io.Writer, opts Options) error {
		header(w, table8)
		fmt.Fprintf(w, "%4s %3s | %-20s | %-15s | %-15s | %-15s | %6s %6s %6s\n",
			"env", "c", "Perf[Mops] max/min/mean", "Response[sec]", "Wait[sec]",
			"Transmission[s]", "CPU%", "Load", "times")
		rows, err := epRows(opts)
		if err != nil {
			return err
		}
		for e, env := range epEnvs {
			for _, r := range rows[e] {
				fmt.Fprintf(w, "%4s %3d | %-20s | %-15s | %-15s | %-15s | %6.2f %6.2f %6d\n",
					env.name, r.C,
					r.Perf.Triple("%.3f"), r.Resp.Triple("%.2f"), r.Wait.Triple("%.2f"),
					r.Comm.Triple("%.2f"), r.CPUUtil, r.Load, r.Times)
			}
		}
		fmt.Fprint(w, table8Note())
		return nil
	}
	register(table8)

	fig11 := &Experiment{
		ID:       "fig11-ep-metaserver",
		Title:    "metaserver task-parallel EP on the 32-node Alpha cluster",
		Artifact: "Figure 11",
	}
	fig11.Run = func(w io.Writer, opts Options) error {
		header(w, fig11)
		fmt.Fprintln(w, "model: T(p) = p·t_dispatch + t_comm + 2^(m+1)/(p·r_EP)")
		fmt.Fprintf(w, "       t_dispatch = %.2fs (Java metaserver, serialized), r_EP = %.1f Mops/node\n\n",
			dispatchOverhead, machine.MustCatalog("alpha-node").EPMopsPerPE)
		classes := []struct {
			name string
			m    int
		}{
			{"sample (2^24)", 24},
			{"class A (2^28)", 28},
			{"class B (2^30)", 30},
		}
		procs := []int{1, 2, 4, 8, 16, 32}
		fmt.Fprintf(w, "%-16s", "class \\ p")
		for _, p := range procs {
			fmt.Fprintf(w, "%12d", p)
		}
		fmt.Fprintln(w)
		for _, cl := range classes {
			fmt.Fprintf(w, "%-16s", cl.name+" T[s]")
			t1 := metaserverEPTime(cl.m, 1)
			for _, p := range procs {
				fmt.Fprintf(w, "%12.1f", metaserverEPTime(cl.m, p))
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "%-16s", "  speedup")
			for _, p := range procs {
				fmt.Fprintf(w, "%12.1f", t1/metaserverEPTime(cl.m, p))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, fig11Note)
		return nil
	}
	register(fig11)
}

// epEnvs are Table 8's two networks.
var epEnvs = []struct {
	name string
	net  func(c int) netmodel.Spec
}{
	{"LAN", netmodel.LANJ90},
	{"WAN", netmodel.SingleSiteWAN},
}

// epRows runs Table 8: per epEnvs entry, one row per client count (Perf
// in Mops).
func epRows(opts Options) ([][]linpackRow, error) {
	rows := make([][]linpackRow, len(epEnvs))
	for e, env := range epEnvs {
		for _, c := range []int{1, 2, 4, 8, 16} {
			res, err := ninfsim.Run(ninfsim.Config{
				Server: machine.MustCatalog("j90"),
				Net:    env.net(c), Workload: ninfsim.EP, EPExp: 24,
				Duration: opts.dur(8000),
				Seed:     opts.seed() + uint64(c),
			})
			if err != nil {
				return nil, err
			}
			rows[e] = append(rows[e], summarize(0, c, res))
		}
	}
	return rows, nil
}

// dispatchOverhead is the per-Ninf_call scheduling/distribution cost of
// the 1997 Java prototype metaserver (§4.3.1), charged serially.
const dispatchOverhead = 0.15

// commOverhead is the O(1) EP argument/result shipping cost per call.
const commOverhead = 0.05

// metaserverEPTime models the Figure 11 execution: the metaserver
// dispatches p Ninf_calls serially, each computing 2^m/p trials on its
// own Alpha node; the slowest call finishes last.
func metaserverEPTime(m, p int) float64 {
	rate := machine.MustCatalog("alpha-node").EPMopsPerPE * 1e6
	ops := math.Pow(2, float64(m+1))
	return float64(p)*dispatchOverhead + commOverhead + ops/(float64(p)*rate)
}
