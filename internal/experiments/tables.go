package experiments

import (
	"fmt"
	"io"
	"sync"

	"ninf/internal/machine"
	"ninf/internal/metrics"
	"ninf/internal/netmodel"
	"ninf/internal/ninfsim"
)

// linpackRow summarizes one (n, c) cell the way the paper's multi-
// client tables do.
type linpackRow struct {
	N, C    int
	Perf    metrics.Series // Mflops
	Resp    metrics.Series // seconds
	Wait    metrics.Series // seconds
	Tput    metrics.Series // MB/s
	Comm    metrics.Series // seconds spent transferring
	CPUUtil float64
	Load    float64
	Times   int
	Aggr    float64 // payload MB/s over the window, all calls together
}

func summarize(n, c int, res *ninfsim.Result) linpackRow {
	row := linpackRow{N: n, C: c, CPUUtil: res.CPUUtil, Load: res.LoadAverage, Times: res.Times()}
	for i := range res.Calls {
		call := &res.Calls[i]
		row.Perf.Add(call.PerfMflops())
		row.Resp.Add(call.ResponseSec())
		row.Wait.Add(call.WaitSec())
		row.Tput.Add(call.ThroughputMBps())
		row.Comm.Add(call.CommSec)
		row.Aggr += call.Bytes
	}
	row.Aggr = row.Aggr / res.Duration / netmodel.MB
	return row
}

// A linpackTable is the (n × c) sweep of one multi-client table.
type linpackTable struct {
	server   string
	mode     ninfsim.Mode
	net      func(c int) netmodel.Spec
	ns, cs   []int
	duration float64

	mu   sync.Mutex
	opts Options
	last []linpackRow
}

var (
	tableNs = []int{600, 1000, 1400}
	tableCs = []int{1, 2, 4, 8, 16}

	table3 = &linpackTable{server: "j90", mode: ninfsim.TaskParallel, net: netmodel.LANJ90, ns: tableNs, cs: tableCs, duration: 1600}
	table4 = &linpackTable{server: "j90", mode: ninfsim.DataParallel, net: netmodel.LANJ90, ns: tableNs, cs: tableCs, duration: 1600}
	table5 = &linpackTable{server: "sparc-smp", mode: ninfsim.TaskParallel, net: netmodel.LANSMP, ns: []int{600}, cs: []int{4, 8, 16}, duration: 1600}
	table6 = &linpackTable{server: "j90", mode: ninfsim.TaskParallel, net: netmodel.SingleSiteWAN, ns: tableNs, cs: tableCs, duration: 4000}
	table7 = &linpackTable{server: "j90", mode: ninfsim.DataParallel, net: netmodel.SingleSiteWAN, ns: tableNs, cs: tableCs, duration: 4000}
)

// rows runs the sweep, n-major. The last result is kept, so Figures 7/8,
// which reprint the mean columns of Tables 3/4 and 6/7, run no sweep
// twice.
func (t *linpackTable) rows(opts Options) ([]linpackRow, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.last != nil && t.opts == opts {
		return t.last, nil
	}
	var rows []linpackRow
	for _, n := range t.ns {
		for _, c := range t.cs {
			res, err := ninfsim.Run(ninfsim.Config{
				Server:   machine.MustCatalog(t.server),
				Mode:     t.mode,
				Net:      t.net(c),
				Workload: ninfsim.Linpack,
				N:        n,
				Duration: opts.dur(t.duration),
				Seed:     opts.seed() + uint64(n*100+c),
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, summarize(n, c, res))
		}
	}
	t.opts, t.last = opts, rows
	return rows, nil
}

func (t *linpackTable) print(w io.Writer, opts Options) error {
	rows, err := t.rows(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%5s %3s | %-22s | %-17s | %-17s | %-17s | %6s %6s %6s\n",
		"n", "c", "Perf[Mflops] max/min/mean", "response[sec]", "wait[sec]",
		"Tput[MB/s]", "CPU%", "Load", "times")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %3d | %-22s | %-17s | %-17s | %-17s | %6.2f %6.2f %6d\n",
			r.N, r.C, r.Perf.Triple("%.2f"), r.Resp.Triple("%.2f"), r.Wait.Triple("%.2f"),
			r.Tput.Triple("%.3f"), r.CPUUtil, r.Load, r.Times)
	}
	return nil
}

// printSurface prints a Figure 7/8 mean-performance surface: one
// matrix per execution mode, rows n, columns c.
func printSurface(w io.Writer, opts Options, tables ...*linpackTable) error {
	for _, t := range tables {
		rows, err := t.rows(opts)
		if err != nil {
			return err
		}
		name := "1-PE (task-parallel)"
		if t.mode == ninfsim.DataParallel {
			name = "4-PE (data-parallel)"
		}
		fmt.Fprintf(w, "-- %s: mean Ninf_call performance [Mflops] --\n", name)
		fmt.Fprintf(w, "%6s", "n\\c")
		for _, c := range t.cs {
			fmt.Fprintf(w, "%9d", c)
		}
		fmt.Fprintln(w)
		for i := range rows {
			if i%len(t.cs) == 0 {
				fmt.Fprintf(w, "%6d", rows[i].N)
			}
			fmt.Fprintf(w, "%9.2f", rows[i].Perf.Mean())
			if i%len(t.cs) == len(t.cs)-1 {
				fmt.Fprintln(w)
			}
		}
	}
	return nil
}

func init() {
	for _, x := range []struct {
		id, title, artifact string
		print               func(io.Writer, Options) error
	}{
		{"table3-lan-1pe", "multi-client LAN Linpack, task-parallel (1-PE) J90", "Table 3", table3.print},
		{"table4-lan-4pe", "multi-client LAN Linpack, data-parallel (4-PE) J90", "Table 4", table4.print},
		{"table5-lan-smp", "multi-client LAN Linpack on the SuperSPARC SMP server", "Table 5", table5.print},
		{"table6-wan-1pe", "single-site WAN Linpack, task-parallel (1-PE) J90", "Table 6", table6.print},
		{"table7-wan-4pe", "single-site WAN Linpack, data-parallel (4-PE) J90", "Table 7", table7.print},
		{"fig7-lan-surface", "average LAN Ninf_call performance over (n, c), 1-PE vs 4-PE", "Figure 7",
			func(w io.Writer, opts Options) error { return printSurface(w, opts, table3, table4) }},
		{"fig8-wan-surface", "average WAN Ninf_call performance over (n, c), 1-PE vs 4-PE", "Figure 8",
			func(w io.Writer, opts Options) error { return printSurface(w, opts, table6, table7) }},
	} {
		e := &Experiment{ID: x.id, Title: x.title, Artifact: x.artifact}
		e.Run = func(w io.Writer, opts Options) error {
			header(w, e)
			return x.print(w, opts)
		}
		register(e)
	}
}
