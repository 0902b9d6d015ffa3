package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/server"
)

// overload is the paper's Fig. 9-style multi-client saturation story
// told as an A/B on the real system: clients with a fixed per-request
// deadline hammer a one-PE server as the client count sweeps past the
// saturation point. With overload control off (no deadline anywhere,
// unbounded FCFS queue — the pre-overload-control system) the server
// keeps executing work whose callers have already given up, and
// goodput collapses once queue wait exceeds the deadline. With it on
// (deadline propagation, admission control, shedding, retry-after
// hints, a client retry budget) the server refuses work it cannot
// finish in time and goodput holds near capacity. A full (non-quick)
// run records the cells in BENCH_overload.json.

// overloadCell is one measured sweep cell, as serialized to JSON.
type overloadCell struct {
	Mode       string  `json:"mode"` // "shed" or "noshed"
	Clients    int     `json:"clients"`
	SvcMS      int     `json:"svc_ms"`
	DeadlineMS int     `json:"deadline_ms"`
	Seconds    float64 `json:"seconds"`
	Requests   int64   `json:"requests"`       // deadline-bounded requests issued
	Successes  int64   `json:"successes"`      // completed within the deadline
	GoodputPS  float64 `json:"goodput_per_s"`  // successes / wall
	Attempts   int64   `json:"wire_attempts"`  // RPC attempts incl. budgeted retries
	Shed       int64   `json:"shed_expired"`   // server: expired jobs shed at dispatch
	Rejected   int64   `json:"rejected_admit"` // server: refused at admission
}

// overloadFile is the BENCH_overload.json document.
type overloadFile struct {
	Experiment string         `json:"experiment"`
	Generated  time.Time      `json:"generated"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"num_cpu"`
	Cells      []overloadCell `json:"cells"`
}

func init() {
	e := &Experiment{
		ID:       "overload",
		Title:    "multi-client saturation goodput, overload control on vs off (real system, loopback)",
		Artifact: "§4 saturation / DiPerF goodput cliff",
	}
	e.Run = func(w io.Writer, opts Options) error {
		header(w, e)
		return runOverloadSweep(w, opts)
	}
	register(e)
}

const (
	overloadSvcMS      = 10 // busy() service time per call
	overloadDeadlineMS = 60 // per-request deadline: 6x service
)

func runOverloadSweep(w io.Writer, opts Options) error {
	clients := []int{1, 2, 4, 8}
	cellDur := 3 * time.Second
	if opts.Quick {
		clients = []int{1, 8}
		cellDur = 750 * time.Millisecond
	}
	fmt.Fprintf(w, "-- busy(%d ms) on a 1-PE server, %d ms request deadline, %.1fs cells --\n",
		overloadSvcMS, overloadDeadlineMS, cellDur.Seconds())
	fmt.Fprintf(w, "%-7s %8s %10s %11s %11s %10s %6s %9s\n",
		"mode", "clients", "requests", "good", "goodput/s", "attempts", "shed", "rejected")

	var cells []overloadCell
	for _, mode := range []string{"shed", "noshed"} {
		for _, nc := range clients {
			cell, err := runOverloadCell(mode == "shed", nc, cellDur)
			if err != nil {
				return err
			}
			cells = append(cells, cell)
			fmt.Fprintf(w, "%-7s %8d %10d %11d %11.1f %10d %6d %9d\n",
				cell.Mode, cell.Clients, cell.Requests, cell.Successes,
				cell.GoodputPS, cell.Attempts, cell.Shed, cell.Rejected)
		}
	}

	// The acceptance comparison: shedding+budget must hold goodput at
	// the saturated end of the sweep and cost nothing when unloaded.
	goodput := func(mode string, nc int) float64 {
		for _, c := range cells {
			if c.Mode == mode && c.Clients == nc {
				return c.GoodputPS
			}
		}
		return 0
	}
	maxC := clients[len(clients)-1]
	onSat, offSat := goodput("shed", maxC), goodput("noshed", maxC)
	onOne, offOne := goodput("shed", 1), goodput("noshed", 1)
	fmt.Fprintf(w, "-- %d clients: shed %.1f/s vs noshed %.1f/s (%.2fx); 1 client: %.1f/s vs %.1f/s --\n",
		maxC, onSat, offSat, onSat/offSat, onOne, offOne)

	if opts.Quick {
		return nil
	}
	doc := overloadFile{
		Experiment: "overload",
		Generated:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Cells:      cells,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile("BENCH_overload.json", blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote BENCH_overload.json (%d cells)\n", len(cells))
	return nil
}

// runOverloadCell drives nc deadline-bounded clients against a fresh
// one-PE server for roughly dur and counts requests that completed
// within the deadline. In shed mode the deadline rides the wire (via
// the call context), the queue is bounded, and retries are hinted and
// budgeted; in noshed mode no deadline goes on the wire, nothing is
// retried and the queue is unbounded — clients simply measure and
// count a miss, as the pre-overload-control system would.
func runOverloadCell(shed bool, nc int, dur time.Duration) (overloadCell, error) {
	cfg := server.Config{PEs: 1}
	if shed {
		cfg.MaxQueue = 4
	}
	s, dial, err := startRealServer(cfg)
	if err != nil {
		return overloadCell{}, err
	}
	defer s.Close()

	clients := make([]*ninf.Client, nc)
	for i := range clients {
		c, err := ninf.NewClient(dial)
		if err != nil {
			return overloadCell{}, err
		}
		defer c.Close()
		if shed {
			c.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
			c.SetRetryBudget(ninf.RetryBudget{Burst: 64, Rate: 32})
		} else {
			c.SetRetryPolicy(ninf.NoRetry)
		}
		// Warm the connection and interface cache off the clock.
		if _, err := c.Call("busy", 0); err != nil {
			return overloadCell{}, err
		}
		clients[i] = c
	}

	deadline := overloadDeadlineMS * time.Millisecond
	var (
		requests, successes int64
		wg                  sync.WaitGroup
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *ninf.Client) {
			defer wg.Done()
			for time.Since(start) < dur {
				atomic.AddInt64(&requests, 1)
				if shed {
					ctx, cancel := context.WithTimeout(context.Background(), deadline)
					_, err := c.CallContext(ctx, "busy", overloadSvcMS)
					cancel()
					if err == nil {
						atomic.AddInt64(&successes, 1)
					}
					continue
				}
				t0 := time.Now()
				_, err := c.Call("busy", overloadSvcMS)
				if err == nil && time.Since(t0) <= deadline {
					atomic.AddInt64(&successes, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var attempts int64
	for _, c := range clients {
		attempts += c.Attempts()
	}
	ov := s.Overload()
	mode := "noshed"
	if shed {
		mode = "shed"
	}
	return overloadCell{
		Mode:       mode,
		Clients:    nc,
		SvcMS:      overloadSvcMS,
		DeadlineMS: overloadDeadlineMS,
		Seconds:    wall,
		Requests:   requests,
		Successes:  successes,
		GoodputPS:  float64(successes) / wall,
		Attempts:   attempts,
		Shed:       ov.ShedExpired,
		Rejected:   ov.RejectedDeadline + ov.RejectedQueue + ov.RejectedClient,
	}, nil
}
