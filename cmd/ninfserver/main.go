// Command ninfserver runs a Ninf computational server with the
// standard numerical library (LINPACK, dmmul, NAS EP, DOS, utilities)
// registered.
//
// Usage:
//
//	ninfserver [-addr :3000] [-pes 4] [-mode task|data] [-policy fcfs|sjf|fpfs|fpmpfs]
//	           [-hostname name] [-maxqueue n] [-maxperclient n] [-drain-timeout 30s]
//	           [-bulk-threshold n] [-cache-budget bytes]
//	           [-journal-dir dir] [-fsync interval|always|never]
//
// The server answers Ninf RPC on the given address; point ninfcall, the
// examples, or a metaserver at it. On SIGTERM or SIGINT the server
// drains: new work is rejected with overloaded-plus-retry-after,
// queued and running jobs finish, replies flush, and the process exits
// 0 — so a supervisor rollout never silently loses accepted calls.
//
// With -journal-dir the server keeps a write-ahead submit journal in
// the directory and mints a new incarnation epoch each start: after a
// crash (kill -9, OOM, power loss) the next start replays the journal,
// re-queues unfinished two-phase jobs and re-serves completed-but-
// unfetched results, so clients recover by re-attaching instead of
// losing work. -fsync trades durability against submit latency; see
// internal/server/journal. Without -journal-dir the server behaves
// exactly as before: volatile, no fsyncs, no files, epoch 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ninf/internal/library"
	"ninf/internal/server"
	"ninf/internal/server/journal"
	"ninf/internal/server/sched"
)

func main() {
	addr := flag.String("addr", ":3000", "listen address")
	pes := flag.Int("pes", 4, "number of processors")
	mode := flag.String("mode", "task", "execution mode: task (1 PE per call) or data (all PEs per call)")
	policy := flag.String("policy", "fcfs", "job scheduling policy: fcfs, sjf, fpfs, fpmpfs")
	hostname := flag.String("hostname", "", "name reported in stats (default: OS hostname)")
	maxQueue := flag.Int("maxqueue", 0, "reject calls beyond this many queued jobs (0 = unlimited)")
	maxPerClient := flag.Int("maxperclient", 0, "cap one client's share of the queue to this many jobs (0 = fair share of maxqueue)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight work before forcing shutdown")
	bulkThreshold := flag.Int("bulk-threshold", 0, "stream replies at or above this many payload bytes as chunked bulk frames (0 = default 256 KiB, negative = never)")
	cacheBudget := flag.Int64("cache-budget", 0, "argument-cache byte budget for content-addressed operands and retained results (0 = cache off: sessions are not granted the cache, and no digest crosses the wire)")
	journalDir := flag.String("journal-dir", "", "directory for the crash-recovery submit journal and incarnation epoch (empty = volatile server, no journal)")
	fsyncPolicy := flag.String("fsync", "interval", "journal durability: interval (background fsync every 100ms), always (fsync per written batch, before acknowledging), never (page cache only)")
	flag.Parse()

	var execMode server.ExecMode
	switch *mode {
	case "task":
		execMode = server.TaskParallel
	case "data":
		execMode = server.DataParallel
	default:
		fmt.Fprintf(os.Stderr, "ninfserver: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	pol, err := sched.New(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninfserver:", err)
		os.Exit(2)
	}
	host := *hostname
	if host == "" {
		host, _ = os.Hostname()
	}

	reg, err := library.NewRegistry()
	if err != nil {
		log.Fatal(err)
	}
	s := server.New(server.Config{
		Hostname:      host,
		PEs:           *pes,
		Mode:          execMode,
		Policy:        pol,
		MaxQueue:      *maxQueue,
		MaxPerClient:  *maxPerClient,
		BulkThreshold: *bulkThreshold,
		CacheBudget:   *cacheBudget,
		Logger:        log.New(os.Stderr, "", log.LstdFlags),
	}, reg)

	if *journalDir != "" {
		pol, err := journal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninfserver:", err)
			os.Exit(2)
		}
		rec, err := s.AttachJournal(*journalDir, journal.Options{Fsync: pol})
		if err != nil {
			log.Fatalf("ninfserver: %v", err)
		}
		log.Printf("ninfserver: journal %s (fsync %s): epoch %d, replay requeued %d jobs, restored %d results, dropped %d records",
			*journalDir, pol, rec.Epoch, rec.Requeued, rec.Restored, rec.Dropped)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ninfserver: %s listening on %s (%d PEs, %s, %s); routines: %v",
		host, l.Addr(), *pes, execMode, pol.Name(), reg.Names())

	// SIGTERM/SIGINT drains instead of killing: stop admitting (new
	// calls get overloaded + retry-after, steering clients elsewhere),
	// let queued and running jobs finish, flush their replies, then
	// exit cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	drained := make(chan int, 1)
	go func() {
		got := <-sig
		log.Printf("ninfserver: %v: draining (timeout %v)", got, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			log.Printf("ninfserver: drain incomplete: %v", err)
			l.Close()
			drained <- 1
			return
		}
		ov := s.Overload()
		log.Printf("ninfserver: drained cleanly (rejected while draining: %d)", ov.RejectedDraining)
		l.Close()
		drained <- 0
	}()

	err = s.Serve(l)
	// Drain closes the server, which unblocks Serve; wait for the
	// drain goroutine's verdict rather than racing past its logging.
	if s.Draining() {
		os.Exit(<-drained)
	}
	if err != nil {
		log.Fatal(err)
	}
}
