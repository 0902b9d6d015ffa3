// Package placement is the Ninf placement rule (§5, §6): given the
// servers a call may run on, pick the one where it should finish
// first. A Policy is a cost function over one server's view; Pick is
// the one decision every host makes with it — the metaserver, and a
// client serving placements from its cache while no metaserver
// answers. The package is pure: it reads no clock, opens no socket and
// holds no lock, so a simulator can run the same rule on virtual time.
package placement

import (
	"fmt"
	"time"
)

// Request describes one pending Ninf_call for placement. Byte counts
// are estimates from argument sizes; Ops is the IDL complexity when
// known (0 otherwise). Exclude lists servers to avoid, used on
// fault-tolerant retry; the host drops them before calling Pick.
type Request struct {
	Routine  string
	InBytes  int64
	OutBytes int64
	Ops      int64
	Exclude  []string
	// Affinity names the server whose argument cache already holds this
	// call's input data (the server that executed a dependency whose
	// output this call reads), so placement can bind the call to the
	// data instead of re-shipping it. Advisory: an ineligible or
	// excluded affinity server is ignored.
	Affinity string
}

// Server is what a policy knows of one eligible server.
type Server struct {
	Name string
	// PowerMflops is the configured peak compute rate; 0 means unknown,
	// and the call's computation is then not costed.
	PowerMflops float64
	// Bandwidth is the achievable client↔server bandwidth in bytes/s;
	// 0 means unknown, and the call's transfer is then not costed.
	Bandwidth float64
	// LoadAverage, Queued and Running are the server's self-report;
	// the host raises Queued for placements not yet reported back.
	LoadAverage     float64
	Queued, Running int64
	// Overloaded marks a server inside the penalty window an overload
	// rejection opened: back-pressure, so placement is biased away
	// from it but not barred.
	Overloaded bool
	// TraceCompute maps routine name → mean observed compute time on
	// this server (the §5.1 execution trace), the prediction for
	// routines whose IDL declares no Complexity clause.
	TraceCompute map[string]time.Duration
}

// A Policy is a cost function: the lower a server's cost for a request,
// the better a place it is for the call.
type Policy func(s *Server, req Request) float64

// LoadOnly is the NetSolve-style baseline: a server's load, ignoring
// communication entirely (§6).
func LoadOnly(s *Server, _ Request) float64 { return load(s) }

// BandwidthAware is the call's estimated wall-clock on the server:
// communication at the observed bandwidth plus computation at the
// configured power slowed by current load. This is the placement rule
// §5.1/§6 call for: communication-intensive tasks go where bandwidth
// is, compute-intensive tasks where cycles are.
func BandwidthAware(s *Server, req Request) float64 {
	cost := 0.0
	if s.Overloaded {
		// The penalty must bias even pure-communication costs, which
		// load(s) does not touch: one synthetic second dwarfs any LAN
		// transfer this reproduction measures.
		cost += 1.0
	}
	if s.Bandwidth > 0 {
		cost += float64(req.InBytes+req.OutBytes) / s.Bandwidth
	}
	switch {
	case req.Ops > 0 && s.PowerMflops > 0:
		// Load inflates compute time: a loaded server shares its
		// processors among load+1 ways.
		cost += float64(req.Ops) / (s.PowerMflops * 1e6) * (1 + load(s))
	case req.Ops == 0 && s.TraceCompute != nil:
		// No IDL complexity: predict from this server's execution
		// trace (§5.1).
		if d, ok := s.TraceCompute[req.Routine]; ok {
			cost += d.Seconds() * (1 + load(s))
		}
	}
	return cost
}

// RoundRobin spreads calls evenly, the right policy for homogeneous
// task-parallel fan-out (the Figure 11 EP cluster experiment): a
// server costs only the work it already holds, so equal servers tie
// and Pick's rotation walks them.
func RoundRobin(s *Server, _ Request) float64 {
	return float64(s.Queued) + float64(s.Running) + overloadBias(s)
}

// load counts running jobs and queued placements not yet reflected in
// the polled load average, so bursts spread and fresh load is visible
// before the average catches up.
func load(s *Server) float64 {
	return s.LoadAverage + float64(s.Queued) + float64(s.Running) + overloadBias(s)
}

// overloadLoadBias is the synthetic load an overload-penalized server
// carries during its penalty window: heavy enough that any idle peer
// wins placement, light enough that a fleet that is overloaded
// everywhere still schedules somewhere.
const overloadLoadBias = 8.0

func overloadBias(s *Server) float64 {
	if s.Overloaded {
		return overloadLoadBias
	}
	return 0
}

// ByName returns the named policy: "load-only", "bandwidth-aware" or
// "round-robin".
func ByName(name string) (Policy, error) {
	switch name {
	case "load-only":
		return LoadOnly, nil
	case "bandwidth-aware":
		return BandwidthAware, nil
	case "round-robin":
		return RoundRobin, nil
	}
	return nil, fmt.Errorf("placement: unknown policy %q", name)
}

// Pick returns the index of the server req should run on, or -1 when
// servers is empty. Every server offered is taken as eligible. The
// affinity server wins when it is offered; otherwise the cheapest
// under policy does, the scan starting at index turn mod len(servers)
// (turn ≥ 0), so that a host advancing turn rotates equal costs.
func Pick(servers []Server, req Request, policy Policy, turn int) int {
	if req.Affinity != "" {
		for i := range servers {
			if servers[i].Name == req.Affinity {
				return i
			}
		}
	}
	best, bestCost := -1, 0.0
	for k := range servers {
		i := (turn + k) % len(servers)
		if c := policy(&servers[i], req); best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}
