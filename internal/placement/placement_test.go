package placement

import (
	"go/build"
	"os"
	"strings"
	"testing"
	"time"
)

func TestLoadOnlyVsBandwidthAware(t *testing.T) {
	// Two servers: "near" has 10 MB/s but is loaded; "far" has
	// 0.1 MB/s and is idle. For a communication-heavy request the
	// bandwidth-aware policy must pick near; load-only picks far.
	servers := []Server{
		{Name: "near", PowerMflops: 100, Bandwidth: 10e6, LoadAverage: 3},
		{Name: "far", PowerMflops: 100, Bandwidth: 0.1e6, LoadAverage: 0.1},
	}
	req := Request{Routine: "linsolve", InBytes: 8_000_000, OutBytes: 8_000, Ops: 1_000_000}
	if got := Pick(servers, req, BandwidthAware, 0); servers[got].Name != "near" {
		t.Errorf("bandwidth-aware picked %s", servers[got].Name)
	}
	if got := Pick(servers, req, LoadOnly, 0); servers[got].Name != "far" {
		t.Errorf("load-only picked %s", servers[got].Name)
	}

	// For a compute-heavy request with tiny payload, both policies
	// should avoid the loaded server.
	req = Request{Routine: "ep", InBytes: 100, OutBytes: 100, Ops: 50_000_000_000}
	if got := Pick(servers, req, BandwidthAware, 0); servers[got].Name != "far" {
		t.Errorf("bandwidth-aware picked %s for compute-bound work", servers[got].Name)
	}
}

func TestCostUsesTraceWhenOpsUnknown(t *testing.T) {
	// Two servers with equal bandwidth/load; one is known (from its
	// trace) to run the routine much faster. With Ops unknown, the
	// bandwidth-aware policy must prefer it.
	servers := []Server{
		{Name: "slow", PowerMflops: 100, Bandwidth: 1e6,
			TraceCompute: map[string]time.Duration{"render": 10 * time.Second}},
		{Name: "fast", PowerMflops: 100, Bandwidth: 1e6,
			TraceCompute: map[string]time.Duration{"render": 100 * time.Millisecond}},
	}
	req := Request{Routine: "render", InBytes: 1000, OutBytes: 1000}
	for turn := range servers {
		if got := Pick(servers, req, BandwidthAware, turn); servers[got].Name != "fast" {
			t.Errorf("turn %d: picked %s, want the trace-fast server", turn, servers[got].Name)
		}
	}
	// With Ops declared, the IDL prediction wins and traces are
	// ignored: both servers then cost the same, and the turn decides.
	req.Ops = 1 << 20
	for turn := range servers {
		if got := Pick(servers, req, BandwidthAware, turn); got != turn {
			t.Errorf("turn %d: picked %d with declared ops, want the tie broken by the turn", turn, got)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	s := &Server{Name: "s", PowerMflops: 100, Bandwidth: 1e6, LoadAverage: 2, Queued: 1}
	req := Request{InBytes: 1e6, Ops: 1e8}
	for name, want := range map[string]Policy{"load-only": LoadOnly, "bandwidth-aware": BandwidthAware, "round-robin": RoundRobin} {
		p, err := ByName(name)
		if err != nil || p(s, req) != want(s, req) {
			t.Errorf("%s: cost %v, %v; want %v", name, p(s, req), err, want(s, req))
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPickAffinityAndRotation(t *testing.T) {
	servers := []Server{{Name: "a"}, {Name: "b", Queued: 3}, {Name: "c"}}
	if got := Pick(nil, Request{}, RoundRobin, 0); got != -1 {
		t.Errorf("Pick over no servers = %d, want -1", got)
	}
	// Equal costs rotate with the turn; the loaded server is skipped.
	for turn, want := range []string{"a", "c", "c", "a", "c"} {
		if got := Pick(servers, Request{}, RoundRobin, turn); servers[got].Name != want {
			t.Errorf("turn %d: picked %s, want %s", turn, servers[got].Name, want)
		}
	}
	// An offered affinity server wins whatever it costs; an unknown one
	// is ignored.
	for _, p := range []Policy{LoadOnly, BandwidthAware, RoundRobin} {
		if got := Pick(servers, Request{Affinity: "b"}, p, 0); servers[got].Name != "b" {
			t.Errorf("affinity b: picked %s", servers[got].Name)
		}
	}
	if got := Pick(servers, Request{Affinity: "zz"}, RoundRobin, 2); servers[got].Name != "c" {
		t.Errorf("unknown affinity: picked %s, want c", servers[got].Name)
	}
	// An overload window outweighs any idle peer's queue but still
	// schedules when every server is in one.
	over := []Server{{Name: "x", Overloaded: true}, {Name: "y", Queued: 5}}
	for _, p := range []Policy{LoadOnly, BandwidthAware, RoundRobin} {
		if got := Pick(over, Request{}, p, 0); over[got].Name != "y" {
			t.Errorf("overloaded server picked over a busy one")
		}
	}
	over[1].Overloaded = true
	if got := Pick(over, Request{}, LoadOnly, 0); over[got].Name != "x" {
		t.Errorf("all overloaded: picked %s, want the lighter x", over[got].Name)
	}
}

// TestImportsStayPure walks the package's transitive imports: a
// simulator runs this code on virtual time, so nothing it reaches may
// touch the network or the rest of ninf.
func TestImportsStayPure(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(pkg *build.Package, chain string)
	walk = func(pkg *build.Package, chain string) {
		for _, imp := range pkg.Imports {
			if imp == "net" || imp == "ninf" || strings.HasPrefix(imp, "ninf/") {
				t.Errorf("placement reaches %s via %s", imp, chain)
				continue
			}
			if imp == "C" || seen[imp] {
				continue
			}
			seen[imp] = true
			dep, err := build.Import(imp, pkg.Dir, 0)
			if err != nil {
				t.Errorf("resolving %s: %v", imp, err)
				continue
			}
			walk(dep, chain+" -> "+imp)
		}
	}
	walk(pkg, "placement")
	if len(seen) == 0 {
		t.Fatal("no imports walked")
	}
}
