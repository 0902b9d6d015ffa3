// Package server implements the Ninf computational server (§2.1): a
// process that services remote computing requests by managing the
// communication and activation of registered Ninf executables.
//
// Requests arrive as Ninf RPC frames. The server answers interface
// queries (stage one of the two-stage RPC), executes blocking calls,
// and supports the §5.1 two-phase submit/fetch protocol. Execution is
// governed by a processor pool and a pluggable scheduling policy
// (FCFS as deployed; SJF/FPFS/FPMPFS as the paper's proposed
// improvements), with the choice between task-parallel (one PE per
// call) and data-parallel (all PEs per call) library execution that
// §4.1 benchmarks.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
	"ninf/internal/server/journal"
	"ninf/internal/server/sched"
)

// How long a two-phase result is kept: at least jobTTL after it
// completes, or once its reply frame is written at least deliveredTTL
// more if that is sooner, and then until the first two-phase exchange
// (a submit or a fetch) after that, which drops it (expireLocked). The
// delivered linger covers the lost-reply window: a write that succeeded
// locally can still be eaten by the network before the client reads
// it, and the retried fetch must re-read the retained result — were the
// job consumed on write, the retry would get CodeUnknownJob and the
// client's idempotent re-Submit (its key released with the job) would
// execute the work a second time on the same incarnation.
const (
	jobTTL       = 5 * time.Minute
	deliveredTTL = 30 * time.Second
)

// loadTau is the damping constant of the load average, matching the
// classic 1-minute Unix loadavg.
const loadTau = 60 * time.Second

// ExecMode selects how many processors each Ninf_call occupies.
type ExecMode int

// Execution modes (§4.1).
const (
	// TaskParallel serves each call with one PE, up to PEs calls
	// concurrently — the conventional approach of non-numerical
	// servers.
	TaskParallel ExecMode = iota
	// DataParallel allocates all processors to each call in
	// sequence, the optimized-parallel-library approach.
	DataParallel
)

// String returns a symbolic name for the mode.
func (m ExecMode) String() string {
	switch m {
	case TaskParallel:
		return "task-parallel"
	case DataParallel:
		return "data-parallel"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// Config parameterizes a Server. The zero value is usable: one PE,
// task-parallel, FCFS.
type Config struct {
	// Hostname labels the server in stats replies.
	Hostname string
	// PEs is the processor count (default 1).
	PEs int
	// Mode picks task- or data-parallel execution.
	Mode ExecMode
	// Policy schedules queued jobs; nil means FCFS.
	Policy sched.Policy
	// MaxQueue rejects new calls with CodeOverloaded once this many
	// jobs are waiting; 0 means unlimited.
	MaxQueue int
	// MaxPayload bounds incoming frame payloads (default 1 GiB).
	MaxPayload int
	// DisableMux refuses the MsgHello protocol upgrade, keeping every
	// connection on the version-1 lockstep exchange. Useful for
	// benchmarking the two paths and for emulating pre-mux servers.
	DisableMux bool
	// BulkThreshold is the reply payload size at which a bulk-capable
	// mux connection streams results as chunked frames instead of one
	// monolithic frame. 0 means protocol.DefaultBulkThreshold; negative
	// disables chunked replies (requests may still arrive chunked).
	BulkThreshold int
	// MaxPerClient bounds one client's (connection's) share of the
	// queue so a greedy client cannot starve the rest. 0 derives
	// max(1, MaxQueue/2) when MaxQueue is set, unlimited otherwise;
	// negative means explicitly unlimited.
	MaxPerClient int
	// CacheBudget bounds the content-addressed argument/result cache in
	// bytes. A positive budget is the cache grant (HelloFlagArgCache)
	// every mux session gets; 0 or negative disables caching, and no
	// cache frame or digest marker then crosses any connection.
	CacheBudget int64
	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
}

// Server is a Ninf computational server.
type Server struct {
	cfg      Config
	registry *Registry
	policy   sched.Policy
	trace    *tracer
	now      func() time.Time // the clock; tests move it instead of sleeping
	cache    *argCache        // nil unless Config.CacheBudget > 0

	// journal is the crash-recovery write-ahead log (nil unless
	// AttachJournal was called); epoch is the incarnation epoch it
	// minted, 0 for journal-less servers. Records are enqueued where
	// their place is decided — a submit under mu, beside its job ID — and
	// committed with mu released: no journal syscall runs under mu. A
	// job's records still reach the log in order, because the journal
	// writes in enqueue order and causality enqueues them in order: the
	// submit before the job can be dispatched, the completion before done
	// closes, the fetched record after a fetch saw done (DESIGN.md §7,
	// "Journal: who waits for what").
	journal *journal.Journal
	epoch   atomic.Uint64

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*task
	jobScratch []*sched.Job // schedule's view of queue, reused pass to pass
	freePEs    int
	seq        uint64
	jobs       map[uint64]*task  // two-phase jobs by ID
	submitKeys map[uint64]uint64 // submit idempotency key → job ID
	closed     bool

	// Retention deadlines of finished two-phase jobs, one FIFO per TTL
	// (retainLocked, expireLocked).
	finished, delivered []expiry

	// The load books the paper's server reports (§3.1, Tables 3–8): the
	// damped load average over running plus queued jobs and the PE-busy
	// time integral behind CPU utilisation, both advanced to booksAt
	// (advanceLocked), beside the running count and the call total.
	// Queued is len(queue) and busy PEs are PEs − freePEs.
	started time.Time
	booksAt time.Time
	load    float64
	busy    time.Duration
	running int
	total   int64

	// Overload control (all under mu unless noted).
	draining       bool           // Drain in progress: admit rejects
	pendingReplies int            // request frames read but replies not yet written
	clientQueued   map[string]int // queued jobs per client identity
	svcNanos       float64        // EWMA of per-job service time

	// nextJob mints two-phase job IDs. On a journal-less server it
	// counts from 0 (IDs 1, 2, 3, …), exactly as before journals
	// existed. AttachJournal rebases it to epoch<<jobIDEpochShift so
	// journaled job IDs are incarnation-scoped: an ID minted by one
	// incarnation can never be re-minted by a later one — even when the
	// journal records that proved it was issued were compacted away or
	// never fsynced — so a pre-crash client's stale Fetch maps to
	// CodeUnknownJob instead of silently reading another job's result.
	nextJob  atomic.Uint64
	failNext atomic.Int64  // fault injection: calls to fail
	connSeq  atomic.Uint64 // client identity serial per connection

	// Overload counters, exported via Overload().
	shedExpired      atomic.Int64
	rejectedDeadline atomic.Int64
	rejectedQueue    atomic.Int64
	rejectedClient   atomic.Int64
	rejectedDraining atomic.Int64

	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup

	baseCtx    context.Context
	cancelBase context.CancelFunc
}

// task is one queued or running Ninf_call.
type task struct {
	job  sched.Job
	ex   *Executable
	args []idl.Value
	ctx  context.Context

	timings protocol.Timings
	err     error
	done    chan struct{}

	// A blocking call runs on the goroutine that admitted it. started
	// (under mu) records that a schedule pass granted its PEs. start is
	// made, by admit, only for a call that queued: the pass that later
	// starts it closes start to wake the admitter. A call that starts in
	// admit's own pass never needs it.
	started bool
	start   chan struct{}

	reqBytes int64  // request payload size, for the execution trace
	deadline int64  // caller's absolute deadline (UnixNano), 0 = none
	client   string // admitting connection's identity, for fair queueing

	// errCode/retryAfter refine how t.err is reported: the MsgError
	// code (CodeExecFailed when zero) and an optional back-pressure
	// hint. Set before close(done); read only after it.
	errCode    uint32
	retryAfter uint32

	// two-phase bookkeeping
	twoPhase  bool
	key       uint64 // submit idempotency key (0 = none)
	reply     []byte
	expire    time.Time
	delivered bool // reply frame written at least once (under server mu)

	// submitTicket is the journal ticket of the submit record (0: none);
	// SubmitOK waits for its commit. fetchedJournaled claims the one
	// fetched record, for whichever comes first: delivery or expiry.
	submitTicket     uint64
	fetchedJournaled atomic.Bool

	// Argument-cache bookkeeping. pins holds the cache
	// entries this call resolved by digest, released on every terminal
	// path so eviction is never blocked by a finished call. retain asks
	// the server to cache large results for later digest reference.
	pins   *callPins
	retain bool

	// arrays owns the pooled arrays decode cut args' large in- and
	// out-arrays from (nil for a replayed task, whose args are plain
	// allocations). See releaseArrays for who gives them back, when.
	arrays *protocol.Arrays
}

// releaseArrays returns the task's pooled argument arrays and drops
// args, which alias them. It is the one place they go back, reached
// from every way a task ends. A two-phase task's completer calls it
// before close(done), once the reply is pre-encoded (run) or there
// will be none (shed, shutdown): nothing reads args after that. A
// one-phase task's args outlive done — the connection's handler
// encodes the reply from them — so the handler calls it, after a
// monolithic encode or on the task's error; a chunked reply's spans
// still alias the arrays, so there the reply adopts them instead and
// the writer's settle returns them. A submission rejected after decode
// never becomes a task; admit releases for it. Idempotent.
func (t *task) releaseArrays() {
	t.args = nil
	t.arrays.Release()
	t.arrays = nil
}

// releasePins unpins this task's resolved cache entries. Called on
// every terminal path; idempotent.
func (t *task) releasePins() {
	if t.pins != nil {
		t.pins.release()
		t.pins = nil
	}
}

// failCode is the MsgError code for a failed task.
func (t *task) failCode() uint32 {
	if t.errCode != 0 {
		return t.errCode
	}
	return protocol.CodeExecFailed
}

// New creates a server around a registry.
func New(cfg Config, reg *Registry) *Server { return newServer(cfg, reg, time.Now) }

// newServer is New reading the clock now.
func newServer(cfg Config, reg *Registry, now func() time.Time) *Server {
	if cfg.PEs <= 0 {
		cfg.PEs = 1
	}
	if cfg.Hostname == "" {
		cfg.Hostname = "ninf-server"
	}
	pol := cfg.Policy
	if pol == nil {
		pol = sched.FCFS{}
	}
	s := &Server{
		cfg:          cfg,
		registry:     reg,
		policy:       pol,
		trace:        newTracer(),
		now:          now,
		freePEs:      cfg.PEs,
		jobs:         make(map[uint64]*task),
		submitKeys:   make(map[uint64]uint64),
		clientQueued: make(map[string]int),
		listeners:    make(map[net.Listener]struct{}),
		conns:        make(map[net.Conn]struct{}),
	}
	s.started = now()
	s.booksAt = s.started
	if cfg.CacheBudget > 0 {
		s.cache = newArgCache(cfg.CacheBudget)
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	return s
}

// Registry exposes the server's registry, e.g. for late registration.
func (s *Server) Registry() *Registry { return s.registry }

// Epoch returns the server's incarnation epoch: 0 for a journal-less
// (volatile) server, otherwise the monotonic count of starts minted by
// the attached journal. It rides in hello negotiation and Stats so
// clients and the metaserver can tell a restart from continued life.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Recovery summarizes one journal replay.
type Recovery struct {
	// Epoch is the incarnation epoch minted for this start.
	Epoch uint64
	// Requeued counts unfinished journaled jobs re-entered into the run
	// queue for (re-)execution.
	Requeued int
	// Restored counts completed-but-unfetched jobs whose retained
	// results (or terminal errors) are fetchable again.
	Restored int
	// Dropped counts journaled jobs that could not be reconstructed
	// (routine no longer registered, undecodable arguments).
	Dropped int
}

// AttachJournal opens (creating if needed) the crash-recovery journal
// in dir, mints this incarnation's epoch, and replays the surviving
// records: unfinished submits re-enter the queue for execution, and
// completed-but-unfetched results become fetchable again under their
// original job IDs and idempotency keys — so a client's retried Submit
// or Fetch lands on the same job across the crash. Subsequent
// two-phase admissions, completions, and deliveries are appended to
// the log.
//
// Recovery is exactly-once-effect for every job whose result fit the
// journal's inline cap; a larger completed result was journaled
// payload-less and is recovered by re-executing the job, repeating its
// side effects (see journal.Options.ResultCap).
//
// Must be called once, before Serve. Without it the server behaves
// exactly as before journals existed: no files, no fsyncs, epoch 0.
func (s *Server) AttachJournal(dir string, opts journal.Options) (Recovery, error) {
	j, recs, err := journal.Open(dir, opts)
	if err != nil {
		return Recovery{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		j.Close()
		return Recovery{}, errors.New("server: closed")
	case s.journal != nil:
		j.Close()
		return Recovery{}, errors.New("server: journal already attached")
	case len(s.jobs) > 0 || len(s.queue) > 0:
		j.Close()
		return Recovery{}, errors.New("server: attach the journal before admitting work")
	}
	s.journal = j
	s.epoch.Store(j.Epoch())
	rec := Recovery{Epoch: j.Epoch()}

	// Group the compacted log per job: at most one submit and one
	// completion each survive compaction.
	type jobRecs struct {
		submit, complete *protocol.JournalRecord
	}
	byID := make(map[uint64]*jobRecs)
	var order []uint64
	maxID := uint64(0)
	for i := range recs {
		r := &recs[i]
		if r.JobID > maxID {
			maxID = r.JobID
		}
		jr := byID[r.JobID]
		if jr == nil {
			jr = &jobRecs{}
			byID[r.JobID] = jr
			order = append(order, r.JobID)
		}
		switch r.Kind {
		case protocol.JournalSubmit:
			jr.submit = r
		case protocol.JournalComplete:
			jr.complete = r
		}
	}
	now := s.now()
	for _, id := range order {
		jr := byID[id]
		switch {
		case jr.complete != nil && (jr.complete.ErrCode != 0 || len(jr.complete.Payload) > 0):
			// Done: re-serve the retained reply (or terminal error).
			t := &task{twoPhase: true, done: make(chan struct{})}
			if jr.submit != nil {
				t.key = jr.submit.Key
				t.client = jr.submit.Client
			}
			if jr.complete.ErrCode != 0 {
				t.err = errors.New(jr.complete.ErrDetail)
				t.errCode = jr.complete.ErrCode
			} else {
				t.reply = jr.complete.Payload
			}
			close(t.done)
			t.job.ID = id
			s.jobs[id] = t
			s.retainLocked(&s.finished, id, t, jobTTL)
			if t.key != 0 {
				s.submitKeys[t.key] = id
			}
			rec.Restored++
		case jr.submit != nil:
			// Unfinished (or finished with a result too big to journal):
			// decode the plain-encoded request and re-queue it.
			t, err := s.replayTaskLocked(jr.submit)
			if err != nil {
				s.logf("ninf server: journal: drop job %d: %v", id, err)
				rec.Dropped++
				continue
			}
			s.enqueueLocked(t, id, now)
			rec.Requeued++
		default:
			rec.Dropped++
		}
	}
	// Rebase the job-ID counter into this incarnation's range. Seeding
	// from the journal's max surviving ID alone would not do: delivered
	// jobs compact away and (under interval fsync) the newest
	// acknowledged submits may have no record at all, so a counter
	// restarted from the survivors can re-mint IDs already issued to
	// pre-crash clients, whose retried Fetch would then silently read a
	// different job's result.
	base := j.Epoch() << jobIDEpochShift
	if maxID > base {
		// Only possible when the epoch file was reset (corrupt, deleted)
		// while higher-epoch IDs survive in the WAL; stay above the
		// survivors so replayed and re-minted IDs cannot collide.
		base = maxID
	}
	s.nextJob.Store(base)
	s.schedule()
	return rec, nil
}

// jobIDEpochShift places the incarnation epoch in the high 24 bits of
// a journaled server's job IDs, leaving a 40-bit per-incarnation
// counter (~10^12 jobs per start, ~16M restarts — both unreachable in
// practice). Clients treat job IDs as opaque uint64s, so the split is
// invisible on the wire; replayed jobs keep their original (old-epoch)
// IDs, which sort strictly below every new-incarnation ID.
const jobIDEpochShift = 40

// replayTaskLocked reconstructs a queued task from a journaled submit
// record, exactly as admit would have built it. Callers hold mu.
func (s *Server) replayTaskLocked(r *protocol.JournalRecord) (*task, error) {
	name, rest, err := protocol.DecodeCallName(r.Payload)
	if err != nil {
		return nil, err
	}
	ex := s.registry.Lookup(name)
	if ex == nil {
		return nil, fmt.Errorf("no routine %q", name)
	}
	var retain bool
	args, deadline, err := protocol.DecodeCallArgsPooled(ex.Info, rest, nil, &retain, nil, s.cfg.MaxPayload)
	if err != nil {
		return nil, err
	}
	return s.newTask(&task{
		ex:       ex,
		args:     args,
		ctx:      s.baseCtx,
		twoPhase: true,
		reqBytes: int64(len(r.Payload)),
		deadline: deadline,
		client:   r.Client,
		key:      r.Key,
		retain:   retain,
	}), nil
}

// newTask completes a task built from a decoded call: its done channel,
// the retention the cache can honour, its PE grant and the cost SJF
// orders it by.
func (s *Server) newTask(t *task) *task {
	t.done = make(chan struct{})
	t.retain = t.retain && s.cache != nil
	t.job.PEs = s.peAllocation(t.ex)
	if ops, ok := t.ex.Info.PredictedOps(t.args); ok {
		t.job.PredictedOps = ops
	} else if d := s.trace.predictCompute(t.ex.Info.Name); d > 0 {
		// §5.1 fallback: no Complexity clause in the IDL, so predict
		// from the server execution trace. Nanoseconds serve as the
		// ops currency; SJF only compares magnitudes.
		t.job.PredictedOps = int64(d)
	}
	return t
}

// enqueueLocked queues an admitted or replayed task under job ID id:
// its FCFS sequence, enqueue stamp and per-client share, and for a
// two-phase job its place in the job table and submit-key index.
// Callers hold mu.
func (s *Server) enqueueLocked(t *task, id uint64, now time.Time) {
	s.advanceLocked(now)
	s.total++
	s.seq++
	t.job.Seq = s.seq
	t.job.ID = id
	t.timings.Enqueue = now.UnixNano()
	s.queue = append(s.queue, t)
	if t.client != "" {
		s.clientQueued[t.client]++
	}
	if t.twoPhase {
		s.jobs[id] = t
		if t.key != 0 {
			s.submitKeys[t.key] = id
		}
	}
}

// journalSubmitPayload re-encodes an admitted submission in plain form
// (digest references resolved, bulk segments folded in) so replay can
// decode it against an empty cache, and copies the encoded bytes out
// of the pooled frame buffer.
func journalSubmitPayload(info *idl.Info, req *protocol.CallRequest) ([]byte, error) {
	_, fb, err := protocol.EncodeRequest(info, protocol.MsgCall, req, 0, protocol.Shape{})
	if err != nil {
		return nil, err
	}
	return protocol.CopyOut(fb), nil
}

// journalCommit waits for the record a ticket names to reach the log,
// best-effort: a failing log (disk full, torn device) degrades
// durability, not availability. Ticket 0 — no record, as on every
// journal-less path — returns at once. Never called under mu.
func (s *Server) journalCommit(ticket uint64) {
	if ticket == 0 {
		return
	}
	if err := s.journal.Commit(ticket); err != nil {
		s.logf("ninf server: journal: %v", err)
	}
}

// journalFetched enqueues a job's fetched record, once per job
// whichever of delivery and expiry gets there first, and returns its
// ticket (0 when there is nothing to write).
func (s *Server) journalFetched(id uint64, t *task) uint64 {
	if s.journal == nil || !t.fetchedJournaled.CompareAndSwap(false, true) {
		return 0
	}
	return s.journal.Enqueue(&protocol.JournalRecord{Kind: protocol.JournalFetched, JobID: id})
}

// logf logs through the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// Serve accepts connections on l until the listener is closed or the
// server shut down. Each connection is handled on its own goroutine;
// requests on one connection are processed in order, matching the
// blocking semantics of Ninf_call.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.ServeConn(conn)
		}()
	}
}

// Close shuts the server down: stops listeners, severs connections,
// cancels running handlers, and wakes waiters.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancelBase()
	s.wg.Wait()
	// All runners are done, so no append can race the close. The final
	// flush makes everything acknowledged so far replayable.
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.logf("ninf server: journal: close: %v", err)
		}
	}
	return nil
}

// Drain performs a graceful shutdown: the server immediately stops
// admitting new calls (they get CodeOverloaded with a retry-after
// hint, steering clients to another server), lets every queued and
// running job finish, waits for all in-flight replies to flush to
// their connections — including replies routed through the mux
// serialized writers — and then closes. The metaserver learns of the
// drain passively: Stats reports Draining, which excludes the server
// from placement on the next poll.
//
// ctx bounds the wait; on expiry the server is closed hard (exactly
// Close's semantics) and ctx's error returned. Completed two-phase
// jobs whose results were never fetched are dropped at close, same as
// any other shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for !s.closed && (len(s.queue) > 0 || s.freePEs != s.cfg.PEs || s.pendingReplies > 0) {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		derr = ctx.Err()
	}
	cerr := s.Close()
	<-done // Close set closed and broadcast, so the waiter exits
	if derr != nil {
		return derr
	}
	return cerr
}

// Draining reports whether Drain has been invoked.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// replyPending records a request frame whose reply has not yet been
// written; Drain waits for the count to reach zero.
func (s *Server) replyPending() {
	s.mu.Lock()
	s.pendingReplies++
	s.mu.Unlock()
}

// replyDone marks one pending reply flushed (or its connection dead).
func (s *Server) replyDone() {
	s.mu.Lock()
	s.pendingReplies--
	if s.pendingReplies == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// FailNextCalls arranges for the next n executions to fail with an
// execution error — the fault-injection hook used to exercise
// metaserver retry.
func (s *Server) FailNextCalls(n int) { s.failNext.Store(int64(n)) }

// Stats returns the server's current self-report.
func (s *Server) Stats() protocol.Stats {
	s.mu.Lock()
	now := s.now()
	s.advanceLocked(now)
	st := protocol.Stats{
		Hostname:    s.cfg.Hostname,
		PEs:         int64(s.cfg.PEs),
		Running:     int64(s.running),
		Queued:      int64(len(s.queue)),
		TotalCalls:  s.total,
		LoadAverage: s.load,
		Draining:    s.draining,
		Epoch:       s.epoch.Load(),
	}
	if up := now.Sub(s.started); up > 0 {
		st.CPUUtil = min(1, float64(s.busy)/(float64(up)*float64(s.cfg.PEs)))
	}
	s.mu.Unlock()
	if s.cache != nil {
		cs := s.cache.stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheEvictions = cs.Evictions
		st.CachePinnedBytes = cs.PinnedBytes
		st.CacheUsedBytes = cs.UsedBytes
		st.CacheBudget = cs.Budget
	}
	return st
}

// CacheCounters reports the argument cache's hit/miss/eviction and
// byte counters; zeros when caching is disabled.
func (s *Server) CacheCounters() (hits, misses, evictions, pinnedBytes, usedBytes int64) {
	if s.cache == nil {
		return 0, 0, 0, 0, 0
	}
	cs := s.cache.stats()
	return cs.Hits, cs.Misses, cs.Evictions, cs.PinnedBytes, cs.UsedBytes
}

// cacheThreshold is the minimum encoded size for digest-addressed
// retention, mirroring the client's bulk threshold so both ends agree
// on which arguments are cache-worthy even when chunked replies are
// disabled.
func (s *Server) cacheThreshold() int {
	if thr := s.bulkThreshold(); thr > 0 {
		return thr
	}
	return protocol.DefaultBulkThreshold
}

// OverloadStats counts the overload-control decisions the server has
// made since start: jobs shed at dispatch because their deadline had
// already expired, and admissions rejected per cause.
type OverloadStats struct {
	ShedExpired      int64 // dequeued past-deadline, never executed
	RejectedDeadline int64 // admission: deadline expired or unmeetable
	RejectedQueue    int64 // admission: MaxQueue full
	RejectedClient   int64 // admission: per-client share exhausted
	RejectedDraining int64 // admission: server draining
}

// Overload reports the overload-control counters.
func (s *Server) Overload() OverloadStats {
	return OverloadStats{
		ShedExpired:      s.shedExpired.Load(),
		RejectedDeadline: s.rejectedDeadline.Load(),
		RejectedQueue:    s.rejectedQueue.Load(),
		RejectedClient:   s.rejectedClient.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
	}
}

// ServeConn processes frames from one connection until EOF or error.
// Exported so tests and the emulation layer can drive the server over
// arbitrary net.Conns (pipes, shaped links).
//
// This is the lockstep framer (protocol version 1): read one request
// frame into a pooled buffer, have handle answer it, write the reply,
// run the reply's sent hook, and only then read the next request. That
// one-frame-at-a-time discipline makes the serving goroutine the
// connection's only writer — and leaves the stream quiet while a
// blocking call executes, which is what lets the call's executable
// reach back to the client over it (connInvoker). When the client
// negotiates the protocol upgrade (MsgHello, the one verb that is about
// framing and therefore answered here), the connection is handed to the
// multiplexed framer (serveMux) for good.
func (s *Server) ServeConn(conn net.Conn) {
	client := s.clientID(conn)
	cp := caps{callback: s.connInvoker(conn)}
	for {
		typ, fb, err := protocol.ReadFrameBuf(conn, s.cfg.MaxPayload)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("ninf server: read: %v", err)
			}
			return
		}
		s.replyPending()
		var r reply
		upgrade := false
		if typ == protocol.MsgHello {
			r, upgrade = s.hello(fb.Payload())
			fb.Release()
		} else {
			r = s.handle(client, cp, typ, fb, nil)
		}
		err = protocol.WriteFrameBuf(conn, r.t, r.fb)
		r.fb.Release()
		if err == nil && r.sent != nil {
			r.sent()
		}
		s.replyDone()
		if err != nil {
			s.logf("ninf server: %v", err)
			return
		}
		if upgrade {
			s.serveMux(conn, client)
			return
		}
	}
}

// clientID derives the fair-queueing identity for one connection: the
// peer address plus a per-connection serial. The serial matters
// because distinct clients can share an address (loopback tests,
// net.Pipe's constant "pipe", NATed sites), so identity is really
// per-connection. A client whose calls never overlap holds one
// multiplexed session and is one identity. One whose calls do holds k
// sessions, k ≤ its own GOMAXPROCS, and so k identities and k ×
// MaxPerClient of queue share — exactly as a lockstep client gets one
// identity per pooled connection, and always has.
func (s *Server) clientID(conn net.Conn) string {
	addr := "conn"
	if ra := conn.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	return fmt.Sprintf("%s#%d", addr, s.connSeq.Add(1))
}

// admit decodes a call payload, runs admission control, enqueues the
// job, and (for two-phase submissions) records it in the job table. It
// returns the task; a blocking call's caller then runs it, once
// awaitStart says its PEs are granted.
// A nonzero key is the submitter's idempotency key: a payload re-sent
// with a key already in the job table is a transport-level retry,
// answered with the already-admitted job instead of being executed a
// second time. client is the connection's fair-queueing identity.
//
// On rejection the third return is a retry-after hint in milliseconds
// (nonzero only for overload rejections), sized from the current queue
// depth and the observed per-job service time.
//
// A non-nil bulk means payload came from a reassembled chunked
// request: payload is then the XDR head (already sliced by the caller)
// and bulk supplies the raw segments its marker words point into. The
// decoded arguments are always copies, so the caller may release the
// reassembly buffer as soon as admit returns.
func (s *Server) admit(payload []byte, bulk *protocol.BulkInfo, twoPhase bool, ctx context.Context, key uint64, client string) (*task, uint32, uint32, error) {
	if ctx == nil {
		ctx = s.baseCtx
	}
	// Cache entries resolved (and pinned) during decode belong to the
	// admitted task; every path that does not hand them to a task must
	// unpin, or a rejected call would block eviction forever.
	var pins *callPins
	if bulk != nil {
		pins, _ = bulk.Resolver.(*callPins)
	}
	// The same goes for the pooled arrays decode hands out, from the
	// first one: a payload that turns bad halfway has some already.
	arrays := protocol.NewArrays()
	adopted := false
	defer func() {
		if adopted {
			return
		}
		arrays.Release()
		if pins != nil {
			pins.release()
		}
	}()
	name, rest, err := protocol.DecodeCallName(payload)
	if err != nil {
		return nil, protocol.CodeBadArguments, 0, err
	}
	ex := s.registry.Lookup(name)
	if ex == nil {
		return nil, protocol.CodeUnknownRoutine, 0, fmt.Errorf("no routine %q", name)
	}
	var retain bool
	args, deadline, err := protocol.DecodeCallArgsPooled(ex.Info, rest, bulk, &retain, arrays, s.cfg.MaxPayload)
	if err != nil {
		if errors.Is(err, protocol.ErrDigestMiss) {
			// The referenced cache entry was evicted between the client's
			// warmth check and this call. Not executed; the client retries
			// with the full bytes.
			return nil, protocol.CodeCacheMiss, 0, err
		}
		return nil, protocol.CodeBadArguments, 0, err
	}

	reqBytes := int64(len(payload))
	if bulk != nil {
		reqBytes = int64(len(bulk.Base)) // head plus segments
	}
	// The WAL record's payload is settled before taking the lock; the
	// record is enqueued under mu, once the job has its ID and before it
	// can be dispatched, and the caller commits it before acknowledging.
	// A request that arrived as one frame with nothing resolved from the
	// cache already is the plain encoding replay needs, so its own bytes
	// are the payload; a chunked or digest-bearing one is re-encoded.
	var jpay []byte
	if twoPhase && s.journal != nil {
		jpay = payload
		if bulk != nil {
			var jerr error
			jpay, jerr = journalSubmitPayload(ex.Info,
				&protocol.CallRequest{Name: name, Args: args, Deadline: deadline, Retain: retain})
			if jerr != nil {
				s.logf("ninf server: journal: encode submit: %v", jerr)
			}
		}
	}
	t := s.newTask(&task{
		ex:       ex,
		args:     args,
		ctx:      ctx,
		twoPhase: twoPhase,
		reqBytes: reqBytes,
		deadline: deadline,
		client:   client,
		key:      key,
		pins:     pins,
		retain:   retain,
		arrays:   arrays,
	})

	now := s.now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, protocol.CodeInternal, 0, errors.New("server shutting down")
	}
	if twoPhase {
		// Every way out below has unlocked by the time this commits.
		defer s.journalCommit(s.expireLocked(now))
	}
	if twoPhase && key != 0 {
		if id, ok := s.submitKeys[key]; ok {
			if prev, ok := s.jobs[id]; ok {
				// Duplicate submission: the original request arrived but
				// its SubmitOK was lost in transit. Hand back the job
				// already admitted under this key — even under overload,
				// since its slot was already granted.
				s.mu.Unlock()
				return prev, 0, 0, nil
			}
			delete(s.submitKeys, key)
		}
	}
	// An overload rejection counts its cause and carries the hint.
	reject := func(cause *atomic.Int64, err error) (*task, uint32, uint32, error) {
		hint := s.retryAfterLocked()
		s.mu.Unlock()
		cause.Add(1)
		return nil, protocol.CodeOverloaded, hint, err
	}
	if s.draining {
		return reject(&s.rejectedDraining, errors.New("server draining"))
	}
	if deadline != 0 {
		if deadline <= now.UnixNano() {
			return reject(&s.rejectedDeadline, errors.New("deadline already expired on arrival"))
		}
		if wait := s.queueWaitLocked(); wait > 0 && now.Add(wait).UnixNano() > deadline {
			return reject(&s.rejectedDeadline, fmt.Errorf("deadline unmeetable: est queue wait %v", wait.Round(time.Millisecond)))
		}
	}
	if s.cfg.MaxQueue > 0 && len(s.queue) >= s.cfg.MaxQueue {
		return reject(&s.rejectedQueue, fmt.Errorf("queue full (%d jobs)", s.cfg.MaxQueue))
	}
	if share := s.maxPerClient(); share > 0 && client != "" && s.clientQueued[client] >= share {
		return reject(&s.rejectedClient, fmt.Errorf("per-client queue share exhausted (%d jobs)", share))
	}
	s.enqueueLocked(t, s.nextJob.Add(1), now)
	if jpay != nil {
		t.submitTicket = s.journal.Enqueue(&protocol.JournalRecord{
			Kind: protocol.JournalSubmit, JobID: t.job.ID, Key: key, Client: client, Payload: jpay})
	}
	s.schedule()
	if !twoPhase && !t.started {
		t.start = make(chan struct{})
	}
	s.mu.Unlock()
	adopted = true
	return t, 0, 0, nil
}

// awaitStart holds a blocking call's admitter until a schedule pass
// grants the call its PEs — true: the admitter runs it now — or the
// call ends unexecuted, shed or failed at shutdown. A call that admit's
// own pass started has no start channel and returns at once.
func (t *task) awaitStart() bool {
	if t.start != nil {
		select {
		case <-t.start:
		case <-t.done:
			return false
		}
	}
	return true
}

// maxPerClient resolves the per-client queue share.
func (s *Server) maxPerClient() int {
	switch {
	case s.cfg.MaxPerClient > 0:
		return s.cfg.MaxPerClient
	case s.cfg.MaxPerClient < 0 || s.cfg.MaxQueue <= 0:
		return 0 // unlimited
	default:
		return max(1, s.cfg.MaxQueue/2)
	}
}

// clientDequeuedLocked releases a task's per-client queue share when
// it leaves the queue (dispatched, shed, or failed at shutdown).
// Callers hold mu.
func (s *Server) clientDequeuedLocked(t *task) {
	if t.client == "" {
		return
	}
	if n := s.clientQueued[t.client]; n <= 1 {
		delete(s.clientQueued, t.client)
	} else {
		s.clientQueued[t.client] = n - 1
	}
}

// queueWaitLocked estimates how long a job admitted now would wait
// before starting, from the queue depth and the service-time EWMA.
// Zero when the server has no execution history yet (admission stays
// optimistic). Callers hold mu.
func (s *Server) queueWaitLocked() time.Duration {
	if s.svcNanos <= 0 {
		return 0
	}
	return time.Duration(s.svcNanos * float64(len(s.queue)) / float64(s.cfg.PEs))
}

// retryAfterLocked sizes the back-pressure hint sent with an overload
// rejection: roughly how long until the present queue has been worked
// off, clamped to [10ms, 5s]. With no service-time history a small
// default keeps retries from hammering. Callers hold mu.
func (s *Server) retryAfterLocked() uint32 {
	svc := s.svcNanos
	if svc <= 0 {
		svc = float64(50 * time.Millisecond)
	}
	est := time.Duration(svc * float64(len(s.queue)+1) / float64(s.cfg.PEs))
	if est < 10*time.Millisecond {
		est = 10 * time.Millisecond
	}
	if est > 5*time.Second {
		est = 5 * time.Second
	}
	return uint32(est / time.Millisecond)
}

// peAllocation resolves how many processors a call occupies.
func (s *Server) peAllocation(ex *Executable) int {
	pes := ex.PEs
	if pes == 0 {
		if s.cfg.Mode == DataParallel {
			pes = s.cfg.PEs
		} else {
			pes = 1
		}
	}
	if pes > s.cfg.PEs {
		pes = s.cfg.PEs
	}
	return pes
}

// schedule dispatches queued jobs while the policy finds one that fits.
// A two-phase job gets a goroutine of its own; a blocking call is
// started for its admitter, which runs it (awaitStart). Callers hold mu.
func (s *Server) schedule() {
	for {
		if s.closed {
			// Fail queued jobs so waiters do not hang.
			now := s.now()
			for _, t := range s.queue {
				s.abandonLocked(t, now, errors.New("server: shut down before execution"))
			}
			s.queue = nil
			return
		}
		s.shedExpiredLocked()
		jobs := s.jobScratch[:0]
		for _, t := range s.queue {
			jobs = append(jobs, &t.job)
		}
		idx := s.policy.Next(jobs, s.freePEs)
		clear(jobs) // the scratch must not keep finished tasks alive
		s.jobScratch = jobs
		if idx < 0 || idx >= len(s.queue) {
			return
		}
		now := s.now()
		s.advanceLocked(now)
		t := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		s.clientDequeuedLocked(t)
		s.freePEs -= t.job.PEs
		s.running++
		t.timings.Dequeue = now.UnixNano()
		s.wg.Add(1)
		if t.twoPhase {
			go s.run(t)
			continue
		}
		t.started = true
		if t.start != nil {
			close(t.start)
		}
	}
}

// shedExpiredLocked drops queued jobs whose caller deadline has
// already passed: executing them is dead work — the caller has given
// up — so they fail immediately with an overload error instead of
// occupying a PE. Callers hold mu.
func (s *Server) shedExpiredLocked() {
	var now time.Time // read once a queued job has a deadline to hold it to
	kept := s.queue[:0]
	shed := false
	for _, t := range s.queue {
		if t.deadline != 0 && now.IsZero() {
			now = s.now()
		}
		if t.deadline == 0 || t.deadline > now.UnixNano() {
			kept = append(kept, t)
			continue
		}
		t.errCode = protocol.CodeOverloaded
		t.retryAfter = s.retryAfterLocked()
		s.shedExpired.Add(1)
		s.abandonLocked(t, now, errors.New("shed: caller deadline expired before execution"))
		shed = true
	}
	// Zero the freed tail so shed tasks are not pinned by the backing
	// array.
	for i := len(kept); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = kept
	if shed {
		s.cond.Broadcast()
	}
}

// abandonLocked ends a queued task unexecuted at now, failed with err:
// shed, or at shutdown. Callers hold mu and take t off the queue once
// their pass is over; every task a pass abandons goes at the same now,
// so the books see the queue as it was before the pass.
func (s *Server) abandonLocked(t *task, now time.Time, err error) {
	s.advanceLocked(now)
	t.err = err
	s.clientDequeuedLocked(t)
	if t.twoPhase {
		s.retainLocked(&s.finished, t.job.ID, t, jobTTL)
		t.releaseArrays()
	}
	t.releasePins()
	close(t.done)
}

// run executes one job and returns its processors.
func (s *Server) run(t *task) {
	defer s.wg.Done()
	err := s.execute(t)
	now := s.now()
	t.timings.Complete = now.UnixNano()
	t.err = err
	if err == nil && t.retain && s.cache != nil {
		// The client asked for result retention: cache large out/inout
		// arrays so its next call here can reference them by digest
		// (transaction handle chaining) before twoPhase drops t.args.
		// The cache takes those arrays as they are — its entries alias
		// them — so none of this task's arrays may be recycled: they are
		// the collector's from here on.
		s.cache.retainResults(t.ex.Info, t.args, s.cacheThreshold())
		t.arrays = nil
	}
	s.trace.record(t.ex.Info.Name,
		time.Duration(t.timings.Dequeue-t.timings.Enqueue),
		time.Duration(t.timings.Complete-t.timings.Dequeue),
		t.reqBytes, err != nil)

	if t.twoPhase {
		// Pre-encode the reply so fetch is cheap and argument buffers
		// can be released. Nobody else touches t.args, t.reply or t.err
		// until t.done closes, so none of this needs the server lock.
		if err == nil {
			_, fb, encErr := protocol.EncodeReply(t.ex.Info, t.timings, t.args, protocol.Shape{})
			t.reply, t.err = protocol.CopyOut(fb), encErr
		}
		t.releaseArrays()
		// Journal the outcome before done closes, so a fetch never
		// returns a result whose completion record is not in the file.
		if s.journal != nil {
			jrec := &protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: t.job.ID}
			if t.err != nil {
				jrec.ErrCode = t.failCode()
				jrec.ErrDetail = t.err.Error()
			} else if len(t.reply) <= s.journal.ResultCap() {
				jrec.Payload = t.reply
			}
			// An oversized success journals as completed-without-payload;
			// replay re-executes the job rather than bloating the WAL.
			s.journalCommit(s.journal.Enqueue(jrec))
		}
	}

	s.mu.Lock()
	s.advanceLocked(now)
	s.freePEs += t.job.PEs
	s.running--
	// Fold the observed service time into the EWMA that drives
	// deadline admission and retry-after hints.
	if svc := float64(t.timings.Complete - t.timings.Dequeue); svc > 0 {
		if s.svcNanos <= 0 {
			s.svcNanos = svc
		} else {
			s.svcNanos = 0.7*s.svcNanos + 0.3*svc
		}
	}
	if t.twoPhase {
		s.retainLocked(&s.finished, t.job.ID, t, jobTTL)
	}
	s.schedule()
	s.cond.Broadcast()
	s.mu.Unlock()
	t.releasePins()
	close(t.done)
}

// execute invokes the handler, honouring fault injection and panics.
func (s *Server) execute(t *task) (err error) {
	if n := s.failNext.Load(); n > 0 && s.failNext.CompareAndSwap(n, n-1) {
		return errors.New("injected fault")
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("executable %s panicked: %v", t.ex.Info.Name, r)
		}
	}()
	return t.ex.Handler(t.ctx, t.args)
}

// markDelivered records that a job's reply frame was written: the
// journal learns the job is done with (the fetched record compacts it
// away on the next open — a post-crash retry re-submits, which is one
// execution on the new incarnation), while in memory the job lingers
// re-fetchable for the shortened deliveredTTL retention, which covers
// the window where the written reply was lost in transit. It runs as the
// reply's sent hook, on the framer's writer, so it stays short: one
// write(2) and no fsync (except under FsyncAlways, which fsyncs every
// batch), none of it under mu, which is taken only once the record is in
// the file — a job reads as delivered only when its fetched record is.
// Idempotent.
func (s *Server) markDelivered(id uint64, t *task) {
	s.journalCommit(s.journalFetched(id, t))
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.delivered {
		return
	}
	t.delivered = true
	s.retainLocked(&s.delivered, id, t, deliveredTTL)
}

// expiry is one finished job's retention deadline: job id, task t,
// may be dropped once at has passed.
type expiry struct {
	at time.Time
	id uint64
	t  *task
}

// retainLocked keeps finished job id for ttl from now, or until its
// present expiry if that is sooner, and queues the deadline on q. Each
// queue holds a single TTL and the clock is read under mu, so a queue
// is in time order and expireLocked need only look at its head.
// Callers hold mu.
func (s *Server) retainLocked(q *[]expiry, id uint64, t *task, ttl time.Duration) {
	at := s.now().Add(ttl)
	if !t.expire.IsZero() && !at.Before(t.expire) {
		return
	}
	t.expire = at
	*q = append(*q, expiry{at, id, t})
}

// expireLocked drops the finished jobs whose retention passed before
// now, popping the expired heads of both queues: a job goes only if it
// is still in the table and its present expiry has passed. It returns
// the highest fetched-record ticket, the caller's to commit once mu is
// released. Callers hold mu.
func (s *Server) expireLocked(now time.Time) (ticket uint64) {
	for _, q := range [...]*[]expiry{&s.finished, &s.delivered} {
		for len(*q) > 0 && now.After((*q)[0].at) {
			e := (*q)[0]
			(*q)[0] = expiry{} // the backing array must not keep the task alive
			*q = (*q)[1:]
			if s.jobs[e.id] == e.t && now.After(e.t.expire) {
				ticket = max(ticket, s.removeJobLocked(e.id, e.t))
			}
		}
	}
	return ticket
}

// advanceLocked folds the time since booksAt into the load average and
// the busy integral, under the run queue and PEs as they were over it:
// callers advance before they change either. Callers hold mu.
func (s *Server) advanceLocked(now time.Time) {
	dt := now.Sub(s.booksAt)
	if dt <= 0 {
		return
	}
	decay := math.Exp(-dt.Seconds() / loadTau.Seconds())
	s.load = s.load*decay + float64(s.running+len(s.queue))*(1-decay)
	s.busy += time.Duration(float64(dt) * float64(s.cfg.PEs-s.freePEs))
	s.booksAt = now
}

// removeJobLocked drops a completed two-phase job and its submit
// idempotency key. Jobs that were never delivered (TTL expiry of an
// unfetched result) get their fetched record here so replay does not
// resurrect them; the returned ticket is the caller's to commit once
// mu is released (0: delivered jobs already journaled it). Callers hold
// mu.
func (s *Server) removeJobLocked(id uint64, t *task) uint64 {
	delete(s.jobs, id)
	if t.key != 0 && s.submitKeys[t.key] == id {
		delete(s.submitKeys, t.key)
	}
	return s.journalFetched(id, t)
}
