// Command ninfcall is a small CLI client for Ninf servers: it lists
// registered routines, shows their IDL, probes stats, and invokes the
// standard numerical routines.
//
// Usage:
//
//	ninfcall -server host:3000 list
//	ninfcall -server host:3000 interface dgefa
//	ninfcall -server host:3000 stats
//	ninfcall -server host:3000 linsolve -n 500
//	ninfcall -server host:3000 ep -m 20
//	ninfcall -server host:3000 dos -m 18 -bins 40
//
// linsolve generates the standard LINPACK test problem of order n,
// solves it remotely, and reports client-observed performance the way
// the paper does.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ninf"
	"ninf/internal/ep"
	"ninf/internal/linpack"
)

func main() {
	serverAddr := flag.String("server", "localhost:3000", "computational server address")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "ninfcall: need a subcommand: list, interface, stats, trace, linsolve, ep, dos")
		os.Exit(2)
	}

	c, err := ninf.Dial("tcp", *serverAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	sub := flag.Arg(0)
	args := flag.Args()[1:]
	switch sub {
	case "list":
		names, err := c.List()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(strings.Join(names, "\n"))

	case "interface":
		if len(args) != 1 {
			log.Fatal("ninfcall: interface needs a routine name")
		}
		info, err := c.Interface(args[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(info)

	case "stats":
		st, err := c.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("host %s: %d PEs, %d running, %d queued, %d total calls, load %.2f, cpu %.1f%%\n",
			st.Hostname, st.PEs, st.Running, st.Queued, st.TotalCalls, st.LoadAverage, st.CPUUtil*100)
		if st.CacheBudget > 0 {
			fmt.Printf("arg cache: %d/%d bytes used (%d pinned), %d hits, %d misses, %d evictions\n",
				st.CacheUsedBytes, st.CacheBudget, st.CachePinnedBytes,
				st.CacheHits, st.CacheMisses, st.CacheEvictions)
		}

	case "trace":
		ts, err := c.Trace()
		if err != nil {
			log.Fatal(err)
		}
		if len(ts) == 0 {
			fmt.Println("no executions recorded yet")
			return
		}
		fmt.Printf("%-20s %8s %6s %14s %12s %12s\n", "routine", "count", "fails", "mean compute", "mean wait", "mean bytes")
		for _, rt := range ts {
			fmt.Printf("%-20s %8d %6d %14s %12s %12d\n",
				rt.Name, rt.Count, rt.Failures, rt.MeanCompute, rt.MeanWait, rt.MeanBytes)
		}

	case "linsolve":
		fs := flag.NewFlagSet("linsolve", flag.ExitOnError)
		n := fs.Int("n", 500, "matrix order")
		fs.Parse(args)
		a := make([]float64, *n**n)
		b := linpack.Matgen(a, *n)
		x := append([]float64(nil), b...)
		rep, err := c.Call("linsolve", *n, a, x)
		if err != nil {
			log.Fatal(err)
		}
		resid := linpack.Residual(a, *n, x, b)
		fmt.Printf("n=%d: %.1f Mflops client-observed (%.3fs total, %.3fs wait), residual %.2f\n",
			*n, linpack.Flops(*n)/rep.Total().Seconds()/1e6,
			rep.Total().Seconds(), rep.Wait().Seconds(), resid)
		fmt.Printf("throughput %.2f MB/s over %d bytes\n", rep.Throughput()/1e6, rep.BytesOut+rep.BytesIn)

	case "ep":
		fs := flag.NewFlagSet("ep", flag.ExitOnError)
		m := fs.Int("m", 20, "log2 of trial pairs")
		fs.Parse(args)
		var sx, sy float64
		var pairs int64
		counts := make([]int64, 10)
		rep, err := c.Call("ep", *m, 0, int64(1)<<*m, &sx, &sy, &pairs, counts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("EP 2^%d: sums %.6f %.6f, %d pairs, counts %v\n", *m, sx, sy, pairs, counts)
		fmt.Printf("%.3f Mops client-observed (%.3fs)\n",
			ep.Ops(*m)/rep.Total().Seconds()/1e6, rep.Total().Seconds())

	case "dos":
		fs := flag.NewFlagSet("dos", flag.ExitOnError)
		m := fs.Int("m", 18, "log2 of samples")
		bins := fs.Int("bins", 40, "histogram bins")
		fs.Parse(args)
		hist := make([]float64, *bins)
		if _, err := c.Call("dos", *m, *bins, hist); err != nil {
			log.Fatal(err)
		}
		max := 0.0
		for _, v := range hist {
			if v > max {
				max = v
			}
		}
		for i, v := range hist {
			bar := ""
			if max > 0 {
				bar = strings.Repeat("#", int(v/max*50))
			}
			fmt.Printf("%3d %8.5f %s\n", i, v, bar)
		}

	default:
		log.Fatalf("ninfcall: unknown subcommand %q", sub)
	}
}
