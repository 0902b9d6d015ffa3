package ninf_test

// One benchmark per paper artifact: each runs the corresponding
// experiment from internal/experiments in quick mode (smaller sweeps,
// same scenarios). cmd/ninfbench runs the full-size versions and
// prints the paper-shaped rows; EXPERIMENTS.md records the comparison.

import (
	"bytes"
	"net"
	"testing"

	"ninf"
	"ninf/internal/experiments"
	"ninf/internal/library"
	"ninf/internal/linpack"
	"ninf/internal/machine"
	"ninf/internal/netmodel"
	"ninf/internal/ninfsim"
	"ninf/internal/server"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(&buf, experiments.Options{Quick: true, Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
		if buf.Len() == 0 {
			b.Fatal("experiment produced no output")
		}
	}
}

func BenchmarkFig3LANSingleSPARC(b *testing.B) { benchExperiment(b, "fig3-lan-single-sparc") }
func BenchmarkFig4LANSingleAlpha(b *testing.B) { benchExperiment(b, "fig4-lan-single-alpha") }
func BenchmarkFig5Throughput(b *testing.B)     { benchExperiment(b, "fig5-throughput") }
func BenchmarkTable3LAN1PE(b *testing.B)       { benchExperiment(b, "table3-lan-1pe") }
func BenchmarkTable4LAN4PE(b *testing.B)       { benchExperiment(b, "table4-lan-4pe") }
func BenchmarkTable5LANSMP(b *testing.B)       { benchExperiment(b, "table5-lan-smp") }
func BenchmarkFig7LANSurface(b *testing.B)     { benchExperiment(b, "fig7-lan-surface") }
func BenchmarkTable6WAN1PE(b *testing.B)       { benchExperiment(b, "table6-wan-1pe") }
func BenchmarkTable7WAN4PE(b *testing.B)       { benchExperiment(b, "table7-wan-4pe") }
func BenchmarkFig8WANSurface(b *testing.B)     { benchExperiment(b, "fig8-wan-surface") }
func BenchmarkFig10MultiSite(b *testing.B)     { benchExperiment(b, "fig10-multisite") }
func BenchmarkTable8EP(b *testing.B)           { benchExperiment(b, "table8-ep") }
func BenchmarkFig11EPMetaserver(b *testing.B)  { benchExperiment(b, "fig11-ep-metaserver") }
func BenchmarkAblationScheduling(b *testing.B) { benchExperiment(b, "ablation-scheduling") }
func BenchmarkAblationTwoPhase(b *testing.B)   { benchExperiment(b, "ablation-twophase") }

// BenchmarkNinfCallRoundTrip measures the end-to-end latency of a
// minimal Ninf_call on the real system over loopback TCP: two-stage
// RPC already resolved, 80-byte payloads.
func BenchmarkNinfCallRoundTrip(b *testing.B) {
	c, cleanup := benchClient(b, server.Config{})
	defer cleanup()
	in := make([]float64, 8)
	out := make([]float64, 8)
	if _, err := c.Call("echo", 8, in, out); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", 8, in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNinfCallMatrix measures a remote dmmul of order 64,
// including XDR marshalling of three 32 KiB matrices.
func BenchmarkNinfCallMatrix(b *testing.B) {
	c, cleanup := benchClient(b, server.Config{})
	defer cleanup()
	n := 64
	a := make([]float64, n*n)
	linpack.Matgen(a, n)
	bb := make([]float64, n*n)
	copy(bb, a)
	out := make([]float64, n*n)
	b.SetBytes(int64(3 * 8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("dmmul", n, a, bb, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCall measures end-to-end Ninf_call latency and allocation
// over loopback TCP across the payload spectrum: 8 B (control-plane
// floor), 64 KiB (typical argument vector), and 8 MiB (n=1000-class
// matrix traffic). With pooled frame buffers the steady-state alloc
// count is flat across sizes.
func BenchmarkCall(b *testing.B) {
	sizes := []struct {
		name string
		n    int // float64 elements: payload is 8*n bytes each way
	}{
		{"8B", 1},
		{"64KiB", 8192},
		{"8MiB", 1 << 20},
	}
	for _, sz := range sizes {
		b.Run(sz.name, func(b *testing.B) {
			c, cleanup := benchClient(b, server.Config{})
			defer cleanup()
			in := make([]float64, sz.n)
			for i := range in {
				in[i] = float64(i)
			}
			out := make([]float64, sz.n)
			if _, err := c.Call("echo", sz.n, in, out); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(2 * 8 * sz.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call("echo", sz.n, in, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCallAsync measures the same exchange through the pooled
// async path, one call in flight at a time, so the cost of pool
// checkout (health probe included) is visible.
func BenchmarkCallAsync(b *testing.B) {
	c, cleanup := benchClient(b, server.Config{})
	defer cleanup()
	in := make([]float64, 8)
	out := make([]float64, 8)
	if _, err := c.CallAsync("echo", 8, in, out).Wait(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CallAsync("echo", 8, in, out).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorCell measures the discrete-event simulator on one
// Table 3 cell (n=1000, c=8, 1600 simulated seconds).
func BenchmarkSimulatorCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ninfsim.Run(ninfsim.Config{
			Server: machine.MustCatalog("j90"), Mode: ninfsim.TaskParallel,
			Net: netmodel.LANJ90(8), Workload: ninfsim.Linpack, N: 1000,
			Duration: 1600, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Times() == 0 {
			b.Fatal("no calls simulated")
		}
	}
}

func benchClient(b *testing.B, cfg server.Config) (*ninf.Client, func()) {
	b.Helper()
	reg, err := library.NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(cfg, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	c, err := ninf.Dial("tcp", l.Addr().String())
	if err != nil {
		s.Close()
		b.Fatal(err)
	}
	return c, func() {
		c.Close()
		s.Close()
	}
}

func BenchmarkAblationMPPSched(b *testing.B) { benchExperiment(b, "ablation-mpp-sched") }

// BenchmarkTransactionFanOut measures a 4-call EP transaction through
// a metaserver-less single-server scheduler: dependency analysis,
// placement, async fan-out, and merge.
func BenchmarkTransactionFanOut(b *testing.B) {
	reg, err := library.NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	s := server.New(server.Config{PEs: 4}, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	addr := l.Addr().String()
	sched := ninf.SingleServer("s", func() (net.Conn, error) { return net.Dial("tcp", addr) })

	m := 10
	total := int64(1) << m
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sx := make([]float64, 4)
		sy := make([]float64, 4)
		pairs := make([]int64, 4)
		tx := ninf.BeginTransaction(sched)
		for p := 0; p < 4; p++ {
			first := total * int64(p) / 4
			last := total * int64(p+1) / 4
			tx.Call("ep", m, first, last-first, &sx[p], &sy[p], &pairs[p], nil)
		}
		if err := tx.End(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSMPThreads(b *testing.B) { benchExperiment(b, "ablation-smp-threads") }
