package experiments

import (
	"fmt"
	"io"
	"net"
	"time"

	"ninf"
	"ninf/internal/emunet"
	"ninf/internal/library"
	"ninf/internal/metaserver"
	"ninf/internal/metrics"
	"ninf/internal/placement"
	"ninf/internal/server"
	"ninf/internal/server/sched"
)

// The ablation experiments run the *real* in-process Ninf system (not
// the simulator): real servers, real RPC, emulated links where needed.
// Times below are host wall-clock and vary with load; the relations
// between the variants are what matters.

// startRealServer launches a standard-library server on loopback TCP.
func startRealServer(cfg server.Config) (*server.Server, func() (net.Conn, error), error) {
	reg, err := library.NewRegistry()
	if err != nil {
		return nil, nil, err
	}
	s := server.New(cfg, reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go s.Serve(l)
	addr := l.Addr().String()
	return s, func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil
}

func init() {
	schedExp := &Experiment{
		ID:       "ablation-scheduling",
		Title:    "server job handling (FCFS vs SJF) and metaserver placement (load-only vs bandwidth-aware)",
		Artifact: "§5.2 and §6 discussion",
	}
	schedExp.Run = func(w io.Writer, opts Options) error {
		header(w, schedExp)
		if err := runSJFAblation(w, opts); err != nil {
			return err
		}
		return runPlacementAblation(w, opts)
	}
	register(schedExp)

	twoPhase := &Experiment{
		ID:       "ablation-twophase",
		Title:    "one-phase (blocking) vs two-phase (submit/fetch) transfer",
		Artifact: "§5.1 discussion",
	}
	twoPhase.Run = runTwoPhaseAblation
	register(twoPhase)
}

// runSJFAblation queues one long and several short jobs on a one-PE
// server under FCFS and SJF and compares mean turnaround — the §5.2
// claim that complexity-driven SJF "improves the response time and
// utilization considerably".
func runSJFAblation(w io.Writer, opts Options) error {
	long, short := 240, 30
	if opts.Quick {
		long, short = 80, 10
	}
	fmt.Fprintf(w, "-- FCFS vs SJF: 1 long job (%d ms) ahead of 6 short jobs (%d ms), 1 PE --\n", long, short)

	for _, polName := range []string{"fcfs", "sjf"} {
		pol, err := sched.New(polName)
		if err != nil {
			return err
		}
		s, dial, err := startRealServer(server.Config{PEs: 1, Policy: pol})
		if err != nil {
			return err
		}
		c, err := ninf.NewClient(dial)
		if err != nil {
			s.Close()
			return err
		}
		// Occupy the PE so everything below genuinely queues.
		gate, err := c.Submit("busy", long)
		if err != nil {
			return err
		}
		// The long job first, then the shorts: FCFS must run the
		// long one next; SJF (using the IDL Complexity clause) runs
		// the shorts first.
		var jobs []*ninf.Job
		sizes := append([]int{long}, short, short, short, short, short, short)
		for _, ms := range sizes {
			j, err := c.Submit("busy", ms)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
		if _, err := gate.Fetch(true); err != nil {
			return err
		}
		var turnaround metrics.Series
		for _, j := range jobs {
			rep, err := j.Fetch(true)
			if err != nil {
				return err
			}
			turnaround.Add(rep.Complete.Sub(rep.Enqueue).Seconds())
		}
		fmt.Fprintf(w, "%-6s mean turnaround %.3f s (max %.3f)\n", polName, turnaround.Mean(), turnaround.Max())
		c.Close()
		s.Close()
	}
	fmt.Fprintln(w, "(SJF should cut mean turnaround roughly in half here)")
	return nil
}

// runPlacementAblation reproduces the §6 critique in vivo: a loaded
// server behind a fast link vs an idle server behind a slow link.
// NetSolve-style load-only placement sends communication-heavy calls
// to the idle-but-distant server; Ninf's bandwidth-aware policy keeps
// them near the bandwidth.
func runPlacementAblation(w io.Writer, opts Options) error {
	payload := 1 << 18 // float64 elements: ≈ 2 MB each way per call
	calls := 4
	if opts.Quick {
		payload = 1 << 15
		calls = 2
	}
	fmt.Fprintf(w, "-- placement: loaded server on fast link vs idle server on slow link (%d KB echo each way) --\n", payload*8/1024)

	// The near server has spare PEs so the experiment's own calls are
	// never head-blocked behind the background load.
	fastS, fastDial, err := startRealServer(server.Config{Hostname: "near", PEs: 4})
	if err != nil {
		return err
	}
	defer fastS.Close()
	slowS, slowDial, err := startRealServer(server.Config{Hostname: "far", PEs: 4})
	if err != nil {
		return err
	}
	defer slowS.Close()

	fastLink := emunet.NewLink("fast", 16e6)
	slowLink := emunet.NewLink("slow", 1e6)
	fastShaped := emunet.Dialer(fastDial, emunet.Options{Up: []*emunet.Link{fastLink}, Down: []*emunet.Link{fastLink}})
	slowShaped := emunet.Dialer(slowDial, emunet.Options{Up: []*emunet.Link{slowLink}, Down: []*emunet.Link{slowLink}})

	// Make the near server "loaded": two long-running jobs that span
	// the whole experiment (Close cancels them at the end).
	bg, err := ninf.NewClient(fastDial)
	if err != nil {
		return err
	}
	defer bg.Close()
	if _, err := bg.Submit("busy", 30_000); err != nil {
		return err
	}
	if _, err := bg.Submit("busy", 30_000); err != nil {
		return err
	}

	for _, polName := range []string{"load-only", "bandwidth-aware"} {
		pol, err := placement.ByName(polName)
		if err != nil {
			return err
		}
		m := metaserver.New(metaserver.Config{Policy: pol})
		if err := m.AddServer("near", "", 100, fastShaped); err != nil {
			return err
		}
		if err := m.AddServer("far", "", 100, slowShaped); err != nil {
			return err
		}
		m.PollOnce()
		// Prime both bandwidth estimates with one small probe each,
		// as the deployed metaserver would from past traffic.
		for name, dial := range map[string]func() (net.Conn, error){"near": fastShaped, "far": slowShaped} {
			c, err := ninf.NewClient(dial)
			if err != nil {
				return err
			}
			nProbe := 1 << 15
			in := make([]float64, nProbe)
			start := time.Now()
			rep, err := c.Call("echo", nProbe, in, nil)
			c.Close()
			if err != nil {
				return err
			}
			m.Observe(name, rep.BytesOut+rep.BytesIn, time.Since(start), nil)
		}

		var elapsed metrics.Series
		chosen := map[string]int{}
		for i := 0; i < calls; i++ {
			pl, err := m.Place(ninf.SchedRequest{Routine: "echo", InBytes: int64(8 * payload), OutBytes: int64(8 * payload)})
			if err != nil {
				return err
			}
			chosen[pl.Name]++
			c, err := ninf.NewClient(pl.Dial)
			if err != nil {
				return err
			}
			in := make([]float64, payload)
			start := time.Now()
			rep, err := c.Call("echo", payload, in, nil)
			d := time.Since(start)
			c.Close()
			if err != nil {
				return err
			}
			m.Observe(pl.Name, rep.BytesOut+rep.BytesIn, d, nil)
			elapsed.Add(d.Seconds())
		}
		fmt.Fprintf(w, "%-16s mean call %.2f s  placements %v\n", polName, elapsed.Mean(), chosen)
	}
	fmt.Fprintln(w, "(load-only chases the idle far server and pays for bandwidth; the")
	fmt.Fprintln(w, " bandwidth-aware policy keeps communication-heavy calls near — §4.2.2/§6)")
	return nil
}

// runTwoPhaseAblation measures how long a client is blocked inside RPC
// when using blocking Ninf_call versus the §5.1 two-phase protocol.
func runTwoPhaseAblation(w io.Writer, opts Options) error {
	e, _ := ByID("ablation-twophase")
	header(w, e)
	jobMs := 150
	jobs := 3
	if opts.Quick {
		jobMs = 40
	}
	fmt.Fprintf(w, "-- %d × busy(%d ms) on a 1-PE server --\n", jobs, jobMs)

	s, dial, err := startRealServer(server.Config{PEs: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	c, err := ninf.NewClient(dial)
	if err != nil {
		return err
	}
	defer c.Close()

	// One-phase: the client is blocked for the whole queue+compute of
	// every call.
	blocked := time.Duration(0)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		if _, err := c.Call("busy", jobMs); err != nil {
			return err
		}
		blocked += time.Since(t0)
	}
	oneMakespan := time.Since(start)
	fmt.Fprintf(w, "one-phase:  client blocked %.3f s, makespan %.3f s\n",
		blocked.Seconds(), oneMakespan.Seconds())

	// Two-phase: submissions return immediately; the client collects
	// results when it pleases.
	blocked = 0
	start = time.Now()
	var handles []*ninf.Job
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		j, err := c.Submit("busy", jobMs)
		if err != nil {
			return err
		}
		blocked += time.Since(t0)
		handles = append(handles, j)
	}
	submitBlocked := blocked
	for _, j := range handles {
		if _, err := j.Fetch(true); err != nil {
			return err
		}
	}
	twoMakespan := time.Since(start)
	fmt.Fprintf(w, "two-phase:  client blocked %.3f s at submit (results fetched later), makespan %.3f s\n",
		submitBlocked.Seconds(), twoMakespan.Seconds())
	fmt.Fprintln(w, "(two-phase frees the client and the connection during computation — §5.1)")
	return nil
}
