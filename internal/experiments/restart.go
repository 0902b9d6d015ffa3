package experiments

// restart measures what the submit journal buys across a server crash:
// four clients push verified two-phase dmmul submissions at one server;
// mid-run the server is hard-killed (listener and live connections
// severed, process state abandoned — never drained) and restarted on
// the same address. With a journal the restart replays the write-ahead
// log: acknowledged submissions keep their job IDs and idempotency
// keys, so fetches re-attach and no client re-enters work. The
// volatile control restarts empty: every submission caught by the
// crash surfaces ErrJobNotFound and must be re-submitted, re-executing
// lost work. A full run records the goodput timeline and the measured
// replay time in BENCH_restart.json.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ninf"
	"ninf/internal/faultnet"
	"ninf/internal/library"
	"ninf/internal/server"
	"ninf/internal/server/journal"
)

const (
	restartClients = 4
	restartBatch   = 4 // submissions in flight per client when the crash lands
	restartMatN    = 8
)

// restartCell is one (mode, phase) goodput window, as serialized.
type restartCell struct {
	Mode      string  `json:"mode"`  // "journal" or "volatile"
	Phase     string  `json:"phase"` // "before", "crash", "after"
	Seconds   float64 `json:"seconds"`
	Calls     int64   `json:"calls"`     // verified fetched submissions
	Failed    int64   `json:"failed"`    // submissions that gave up
	Resubmits int64   `json:"resubmits"` // jobs re-entered after ErrJobNotFound
	GoodputPS float64 `json:"goodput_per_s"`
}

// restartReplay is one mode's measured recovery, as serialized.
type restartReplay struct {
	Mode     string  `json:"mode"`
	ReplayMS float64 `json:"replay_ms"` // journal open + replay + relisten
	Epoch    uint64  `json:"epoch"`
	Requeued int     `json:"requeued"`
	Restored int     `json:"restored"`
	Dropped  int     `json:"dropped"`
}

// restartFile is the BENCH_restart.json document.
type restartFile struct {
	Experiment string          `json:"experiment"`
	Generated  time.Time       `json:"generated"`
	GoVersion  string          `json:"go_version"`
	NumCPU     int             `json:"num_cpu"`
	Clients    int             `json:"clients"`
	Batch      int             `json:"batch"`
	Cells      []restartCell   `json:"cells"`
	Replays    []restartReplay `json:"replays"`
}

func init() {
	e := &Experiment{
		ID:       "restart",
		Title:    "two-phase goodput through a server crash: journal replay vs volatile restart",
		Artifact: "§5.1 two-phase protocol (crash-recovery extension)",
	}
	e.Run = func(w io.Writer, opts Options) error {
		header(w, e)
		return runRestart(w, opts)
	}
	register(e)
}

// restartDaemon is one server incarnation behind a killable daemon:
// kill severs the listener and every live connection while abandoning
// the server's state, as a crashed process would. (The server object
// is deliberately not Closed: a drain would journal orderly
// completions, which a crash never writes.)
type restartDaemon struct {
	*faultnet.Daemon
	s *server.Server
}

// restartServer builds one server incarnation, attaching the journal
// when dir is nonempty, and returns its daemon plus the measured
// recovery (zero-valued for the volatile mode's fresh starts).
func restartServer(dir, addr string) (*restartDaemon, restartReplay, error) {
	reg, err := library.NewRegistry()
	if err != nil {
		return nil, restartReplay{}, err
	}
	s := server.New(server.Config{Hostname: "restart-srv", PEs: 4}, reg)
	var rep restartReplay
	if dir != "" {
		start := time.Now()
		rec, err := s.AttachJournal(dir, journal.Options{Fsync: journal.FsyncInterval})
		if err != nil {
			return nil, restartReplay{}, err
		}
		rep = restartReplay{ReplayMS: float64(time.Since(start).Microseconds()) / 1000,
			Epoch: rec.Epoch, Requeued: rec.Requeued, Restored: rec.Restored, Dropped: rec.Dropped}
	}
	d, err := faultnet.StartDaemon(addr, s.ServeConn)
	if err != nil {
		return nil, restartReplay{}, err
	}
	return &restartDaemon{Daemon: d, s: s}, rep, nil
}

// restartPhase drives every client in batched submit-then-fetch rounds
// for dur; if kill is non-nil it fires partway in, hard-killing the
// serving daemon and bringing up the next incarnation.
func restartPhase(mode, phase string, dur time.Duration, clients []*ninf.Client, kill func()) restartCell {
	var calls, failed, resubmits int64
	var wg sync.WaitGroup
	start := time.Now()
	if kill != nil {
		go func() {
			time.Sleep(dur / 4)
			kill()
		}()
	}
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *ninf.Client) {
			defer wg.Done()
			n := restartMatN
			for r := 0; time.Since(start) < dur; r++ {
				type pending struct {
					job  *ninf.Job
					got  []float64
					want []float64
				}
				var batch []pending
				for k := 0; k < restartBatch; k++ {
					a := make([]float64, n*n)
					b := make([]float64, n*n)
					got := make([]float64, n*n)
					for j := range a {
						a[j] = float64((c+1)*(r+1) + j + k)
						b[j] = float64(j % 7)
					}
					want := make([]float64, n*n)
					metaHAMmul(n, a, b, want)
					j, err := cl.Submit("dmmul", n, a, b, got)
					if err != nil {
						atomic.AddInt64(&failed, 1)
						continue
					}
					batch = append(batch, pending{job: j, got: got, want: want})
				}
				for _, p := range batch {
					_, err := p.job.Fetch(true)
					if errors.Is(err, ninf.ErrJobNotFound) {
						// The restarted server has no journal (or lost the
						// job): re-enter the submission under its original
						// idempotency key and fetch again.
						atomic.AddInt64(&resubmits, 1)
						if err = p.job.Resubmit(context.Background()); err == nil {
							_, err = p.job.Fetch(true)
						}
					}
					if err != nil {
						atomic.AddInt64(&failed, 1)
						continue
					}
					ok := true
					for j := range p.want {
						if p.got[j] != p.want[j] {
							ok = false
							break
						}
					}
					if ok {
						atomic.AddInt64(&calls, 1)
					} else {
						atomic.AddInt64(&failed, 1)
					}
				}
			}
		}(c, cl)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	return restartCell{
		Mode: mode, Phase: phase, Seconds: wall,
		Calls: calls, Failed: failed, Resubmits: resubmits,
		GoodputPS: float64(calls) / wall,
	}
}

func runRestart(w io.Writer, opts Options) error {
	phaseDur := 2 * time.Second
	if opts.Quick {
		phaseDur = 300 * time.Millisecond
	}
	fmt.Fprintf(w, "-- %d clients, batched two-phase dmmul(%d) ×%d, %.1fs phases; server hard-killed and restarted inside 'crash' --\n",
		restartClients, restartMatN, restartBatch, phaseDur.Seconds())
	fmt.Fprintf(w, "%-9s %-7s %8s %8s %10s %11s\n", "mode", "phase", "calls", "failed", "resubmits", "goodput/s")

	var cells []restartCell
	var replays []restartReplay
	for _, mode := range []struct {
		name string
		dir  bool
	}{{"journal", true}, {"volatile", false}} {
		dir := ""
		if mode.dir {
			var err error
			dir, err = os.MkdirTemp("", "ninf-restart-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		d, first, err := restartServer(dir, "127.0.0.1:0")
		if err != nil {
			return err
		}
		if mode.dir {
			first.Mode = mode.name + "-boot"
			replays = append(replays, first)
		}
		addr := d.Addr
		var clients []*ninf.Client
		for i := 0; i < restartClients; i++ {
			cl, err := ninf.NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) })
			if err != nil {
				return err
			}
			cl.SetRetryPolicy(ninf.RetryPolicy{MaxAttempts: 14, BaseDelay: 5 * time.Millisecond, MaxDelay: 150 * time.Millisecond})
			clients = append(clients, cl)
		}

		var dmu sync.Mutex // guards d across the kill callback
		for _, phase := range []string{"before", "crash", "after"} {
			var kill func()
			if phase == "crash" {
				kill = func() {
					dmu.Lock()
					defer dmu.Unlock()
					d.Kill()
					nd, rep, err := restartServer(dir, addr)
					if err != nil {
						fmt.Fprintf(w, "!! restart failed: %v\n", err)
						return
					}
					old := d.s
					d = nd
					if dir != "" {
						rep.Mode = mode.name
						replays = append(replays, rep)
					}
					// Stop the abandoned incarnation's straggling handlers
					// now that the new one owns the journal file.
					old.Close()
				}
			}
			cell := restartPhase(mode.name, phase, phaseDur, clients, kill)
			cells = append(cells, cell)
			fmt.Fprintf(w, "%-9s %-7s %8d %8d %10d %11.1f\n",
				cell.Mode, cell.Phase, cell.Calls, cell.Failed, cell.Resubmits, cell.GoodputPS)
		}
		for _, cl := range clients {
			cl.Close()
		}
		dmu.Lock()
		d.Kill()
		d.s.Close()
		dmu.Unlock()
	}

	pick := func(mode, phase string) restartCell {
		for _, c := range cells {
			if c.Mode == mode && c.Phase == phase {
				return c
			}
		}
		return restartCell{}
	}
	jc, vc := pick("journal", "crash"), pick("volatile", "crash")
	var replayMS float64
	for _, r := range replays {
		if r.Mode == "journal" {
			replayMS = r.ReplayMS
		}
	}
	fmt.Fprintf(w, "-- crash window: journal re-attached %d submissions with %d resubmits (replay %.1fms); volatile forced %d resubmits of lost work --\n",
		jc.Calls, jc.Resubmits, replayMS, vc.Resubmits)

	if opts.Quick {
		return nil
	}
	doc := restartFile{
		Experiment: "restart",
		Generated:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Clients:    restartClients,
		Batch:      restartBatch,
		Cells:      cells,
		Replays:    replays,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile("BENCH_restart.json", blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote BENCH_restart.json (%d cells, %d replays)\n", len(cells), len(replays))
	return nil
}
