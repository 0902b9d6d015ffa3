// Package journal implements the computational server's crash-recovery
// write-ahead log and incarnation-epoch store.
//
// A server started with a journal directory appends one record per
// two-phase job transition — admitted, completed, delivered — to an
// append-only log (wal.log). After a crash, Open replays the log:
// records for delivered jobs cancel out, and what survives is exactly
// the set of jobs a client could still legitimately ask about. The
// server re-queues unfinished submits for execution and re-serves
// completed-but-unfetched results under their original job IDs and
// idempotency keys, so a client's retried Submit or Fetch lands on the
// same job across the crash (GridFTP's restart-marker idea applied to
// RPC jobs rather than transfers).
//
// Open also mints the incarnation epoch: a monotonic counter persisted
// beside the log (epoch file), incremented once per open. The epoch
// rides in hello negotiation and Stats so clients and the metaserver
// can tell "same server, still alive" from "restarted, volatile state
// gone".
//
// On-disk format. The log is a stream of length-prefixed,
// CRC-protected records:
//
//	file header:  "NINFWAL2" (8 bytes)
//	record:       u32 body length | u32 CRC-32 (IEEE) of body | body
//
// Body encoding is protocol.JournalRecord (XDR); a submit record embeds
// the call request, so the header names the request layout too (logs
// headed "NINFWAL1" hold requests from before the deadline and retain
// words became fixed fields). Open refuses a non-empty log under any
// other header and leaves the file as it is. A torn tail — a
// partial record from a crash mid-append — fails the length or CRC
// check; replay stops there and the file is truncated to the last
// whole record, which is the correct recovery: the append that tore
// never acknowledged its SubmitOK. On every open the log is compacted:
// surviving records are rewritten to a temporary file that atomically
// replaces the old log, so delivered jobs do not accrete forever.
//
// Appending is group commit by ticket. Enqueue frames a record into a
// pending tail under the journal's own mutex — a copy, never a syscall
// — and returns a ticket; Commit(ticket) returns once the record is in
// the file. The first committer to find its record pending writes the
// whole tail with one write(2); committers that write covered return
// without a syscall. A caller can therefore fix a record's place in the
// log under its own lock (the server enqueues a submit next to minting
// its job ID) and wait for the disk after releasing it. Records are
// copied when enqueued; the journal never retains caller buffers.
//
// Durability is configurable (Options.Fsync): FsyncAlways fsyncs once
// per written batch, before any of its committers returns, and loses
// nothing a crash-stopped kernel had acknowledged; FsyncInterval (the
// default) bounds loss to the configured window with a goroutine the
// journal owns, which fsyncs whenever the file has grown, so no request
// path ever waits for it and the bound holds when traffic stops;
// FsyncNever leaves flushing to the OS. A failed write or fsync is
// sticky: the file may now end in a torn record replay cannot read
// past, so every later Commit reports the failure.
//
// Open holds a POSIX fcntl lock (lock file) for the journal's
// lifetime, so a second server *process* pointed at the same directory
// fails fast instead of corrupting the log; the kernel releases the
// lock on process death, so a crash never wedges the directory. The
// lock is per-process: reopening the journal within one process (an
// in-process restart, as tests do) is allowed.
//
// Recovery is exactly-once-effect only for results the journal could
// retain inline: a completed result above Options.ResultCap journals
// payload-less, and replay re-executes the job — repeating its side
// effects — to recover the reply (see Options.ResultCap).
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ninf/internal/protocol"
)

// Policy selects when appends reach stable storage.
type Policy int

// Fsync policies.
const (
	// FsyncInterval flushes at most once per Options.SyncEvery, off
	// every caller's path; a crash loses at most that window of
	// acknowledged submits. The default.
	FsyncInterval Policy = iota
	// FsyncAlways flushes every written batch before its committers
	// return, so before the caller acknowledges the client. Durable, and
	// on the admission path.
	FsyncAlways
	// FsyncNever never calls fsync; the OS flushes when it pleases. A
	// process crash (the common case) still loses nothing — the
	// written bytes survive in the page cache — but a machine crash
	// can lose acknowledged work.
	FsyncNever
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParsePolicy parses a -fsync flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options parameterizes a journal. The zero value is usable.
type Options struct {
	// Fsync is the durability policy (default FsyncInterval).
	Fsync Policy
	// SyncEvery bounds how stale the log may be under FsyncInterval
	// (default 100ms).
	SyncEvery time.Duration
	// ResultCap is the largest completed result (encoded reply bytes)
	// journaled inline (default 1 MiB). Bigger results are recorded as
	// completed-without-payload, and replay re-executes the job instead
	// of re-serving it — an at-least-once caveat: the re-execution
	// repeats any side effects the routine has, so recovery is
	// exactly-once-effect only for replies at or below the cap. Size
	// ResultCap above the largest reply of side-effecting routines.
	ResultCap int
}

const (
	fileHeader       = "NINFWAL2"
	walName          = "wal.log"
	epochName        = "epoch"
	lockName         = "lock"
	defaultSyncEvery = 100 * time.Millisecond
	// DefaultResultCap is the default Options.ResultCap.
	DefaultResultCap = 1 << 20
	// maxRecord bounds one record body, a corruption guard for the
	// replay scanner: plainly impossible lengths stop the scan rather
	// than attempting a multi-gigabyte allocation.
	maxRecord = 64 << 20
)

// Journal is an open write-ahead log, safe for concurrent use. Records
// reach the file in the order they were enqueued.
type Journal struct {
	dir   string
	opts  Options
	epoch uint64
	f     *os.File
	lock  *os.File // held fcntl lock on the directory's lock file

	// mu guards the pending tail: records framed and ticketed but not yet
	// handed to the file. It is held for a copy, never for a syscall.
	mu       sync.Mutex
	tail     []byte
	spare    []byte // the buffer of the batch being written, the next tail
	enqueued uint64 // bytes framed since Open: the newest ticket
	closed   bool
	err      error // the first failed write or fsync, or errClosed

	// wmu makes one committer at a time the writer; written is the
	// ticket the file has reached (and, under FsyncAlways, synced).
	wmu     sync.Mutex
	written atomic.Uint64

	stop, stopped chan struct{} // the FsyncInterval syncer's; nil otherwise
	ioHook        atomic.Pointer[func(op string)]
}

var errClosed = errors.New("journal: closed")

// Open creates (or opens) the journal in dir, advances and persists
// the incarnation epoch, compacts the existing log, and returns the
// surviving records in log order for the server to replay.
func Open(dir string, opts Options) (*Journal, []protocol.JournalRecord, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if opts.ResultCap <= 0 {
		opts.ResultCap = DefaultResultCap
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Exclude other server processes before touching epoch or log: two
	// servers sharing a directory would both mint epochs, interleave
	// appends, and double-replay (and re-execute) the same jobs.
	lock, err := lockFile(filepath.Join(dir, lockName))
	if err != nil {
		return nil, nil, err
	}
	recs, err := readLog(filepath.Join(dir, walName))
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	epoch, err := advanceEpoch(dir)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	live := compact(recs)
	if err := rewriteLog(dir, live); err != nil {
		lock.Close()
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, epoch: epoch, f: f, lock: lock}
	if opts.Fsync == FsyncInterval {
		j.stop, j.stopped = make(chan struct{}), make(chan struct{})
		go j.syncer()
	}
	return j, live, nil
}

// Epoch returns the incarnation epoch minted by Open (always >= 1).
func (j *Journal) Epoch() uint64 { return j.epoch }

// ResultCap returns the resolved inline-result size cap.
func (j *Journal) ResultCap() int { return j.opts.ResultCap }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append writes one record and returns once it is in the file (synced
// under FsyncAlways): Enqueue and Commit in one call. The record's byte
// slices are copied before the call returns; the caller keeps ownership
// of whatever they alias.
func (j *Journal) Append(rec *protocol.JournalRecord) error {
	return j.Commit(j.Enqueue(rec))
}

// Enqueue frames rec onto the pending tail and returns its ticket: the
// log's length, in bytes since Open, with rec in it. The record is
// copied before Enqueue returns; nothing reaches the file until a
// Commit covers the ticket. After Close (or a failed write) the record
// is dropped and its ticket's Commit reports why.
func (j *Journal) Enqueue(rec *protocol.JournalRecord) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return j.enqueued + 1 // past everything that will ever be written
	}
	n := len(j.tail)
	j.tail = frame(j.tail, rec)
	j.enqueued += uint64(len(j.tail) - n)
	return j.enqueued
}

// Commit returns once the record ticket names, and every record
// enqueued before it, is in the file — and, under FsyncAlways, on
// stable storage. The first committer to find its record pending writes
// the whole tail in one write (and one fsync); a committer whose record
// that batch covered waits for it and returns without a syscall.
func (j *Journal) Commit(ticket uint64) error {
	if ticket <= j.written.Load() {
		return nil
	}
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if ticket <= j.written.Load() {
		return nil
	}
	if err := j.flushLocked(j.opts.Fsync == FsyncAlways); err != nil {
		return err
	}
	if ticket > j.written.Load() {
		return errClosed // Enqueue refused the record: Close had begun
	}
	return nil
}

// flushLocked hands the whole pending tail to the file in one write,
// fsyncs it when sync is set, and advances written. Callers hold wmu.
func (j *Journal) flushLocked(sync bool) error {
	j.mu.Lock()
	if err := j.err; err != nil {
		j.mu.Unlock()
		return err
	}
	batch, end := j.tail, j.enqueued
	j.tail, j.spare = j.spare[:0], nil
	j.mu.Unlock()

	var err error
	if len(batch) > 0 {
		j.io("write")
		_, err = j.f.Write(batch)
	}
	if err == nil && sync {
		err = j.sync()
	}

	j.mu.Lock()
	j.spare = batch[:0]
	if err != nil {
		j.fail(err)
		err = j.err
	}
	j.mu.Unlock()
	if err == nil {
		j.written.Store(end)
	}
	return err
}

// fail makes err sticky and drops what it stranded in the tail. Callers
// hold mu.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = fmt.Errorf("journal: %w", err)
	}
	j.tail = j.tail[:0]
}

// sync fsyncs the log file.
func (j *Journal) sync() error {
	j.io("sync")
	return j.f.Sync()
}

// syncer is FsyncInterval's flusher, started by Open and stopped by
// Close: every SyncEvery it fsyncs the log if the file has grown since
// the last time. It never holds wmu, so no commit waits for it, and it
// keeps the loss bound when traffic stops.
func (j *Journal) syncer() {
	defer close(j.stopped)
	tick := time.NewTicker(j.opts.SyncEvery)
	defer tick.Stop()
	var synced uint64
	for {
		select {
		case <-j.stop:
			return
		case <-tick.C:
		}
		w := j.written.Load()
		if w == synced {
			continue
		}
		if err := j.sync(); err != nil {
			j.mu.Lock()
			j.fail(err)
			j.mu.Unlock()
			return
		}
		synced = w
	}
}

// SetIOHook installs fn to run before every write and fsync of the log
// file, told which ("write" or "sync"); nil removes it. It exists for
// the tests that hold or count the journal's I/O to check who waits for
// it; nothing else may set it.
func (j *Journal) SetIOHook(fn func(op string)) {
	if fn == nil {
		j.ioHook.Store(nil)
		return
	}
	j.ioHook.Store(&fn)
}

func (j *Journal) io(op string) {
	if fn := j.ioHook.Load(); fn != nil {
		(*fn)(op)
	}
}

// Sync writes whatever is pending and flushes the log to stable storage
// regardless of policy. A no-op after Close.
func (j *Journal) Sync() error {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if err := j.flushLocked(true); !errors.Is(err, errClosed) {
		return err
	}
	return nil
}

// Close stops the syncer, writes what was enqueued before it, flushes
// and closes the log. The epoch file stays; the next Open mints the
// next incarnation.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	if j.stop != nil {
		close(j.stop)
		<-j.stopped
	}
	j.wmu.Lock()
	defer j.wmu.Unlock()
	err := j.flushLocked(true)
	j.mu.Lock()
	j.err = errClosed
	j.mu.Unlock()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if j.lock != nil {
		j.lock.Close() // releases the fcntl directory lock
	}
	return err
}

// frame appends rec to b as one log record: u32 body length, u32 CRC-32
// (IEEE) of the body, then the body.
func frame(b []byte, rec *protocol.JournalRecord) []byte {
	at := len(b)
	b = rec.AppendTo(append(b, make([]byte, 8)...))
	body := b[at+8:]
	binary.BigEndian.PutUint32(b[at:], uint32(len(body)))
	binary.BigEndian.PutUint32(b[at+4:], crc32.ChecksumIEEE(body))
	return b
}

// advanceEpoch reads, increments, and atomically rewrites the epoch
// file. A missing or corrupt file restarts the count at 1 — epochs
// need only change across restarts, not be gap-free.
func advanceEpoch(dir string) (uint64, error) {
	path := filepath.Join(dir, epochName)
	var prev uint64
	if b, err := os.ReadFile(path); err == nil {
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); perr == nil {
			prev = v
		}
	}
	next := prev + 1
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, []byte(strconv.FormatUint(next, 10)+"\n")); err != nil {
		return 0, fmt.Errorf("journal: epoch: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("journal: epoch: %w", err)
	}
	syncDir(dir)
	return next, nil
}

// writeFileSync writes b to path and fsyncs it before closing.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file survives a crash;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// readLog scans the log, decoding whole records until EOF, a torn
// tail, or corruption; scanning stops at the first bad record (all
// later bytes are unreachable by the append-only writer's ordering). A
// non-empty log under another header is refused, not read as empty:
// Open would compact it away.
func readLog(path string) ([]protocol.JournalRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(b) > 0 && !bytes.HasPrefix(b, []byte(fileHeader)) {
		return nil, fmt.Errorf("journal: %s has header %q, not %q; refusing to replay or rewrite it", path, b[:min(len(b), len(fileHeader))], fileHeader)
	}
	recs, _ := ScanRecords(b)
	return recs, nil
}

// ScanRecords decodes the record stream of a journal file (header plus
// length/CRC-framed bodies), stopping at the first torn or corrupt
// record. It returns the whole records and the byte offset where the
// clean prefix ends. Exported for the fuzz target and tests; the
// scanner must never panic or over-allocate on adversarial input.
func ScanRecords(b []byte) ([]protocol.JournalRecord, int) {
	if len(b) < len(fileHeader) || string(b[:len(fileHeader)]) != fileHeader {
		return nil, 0
	}
	off := len(fileHeader)
	var recs []protocol.JournalRecord
	for {
		if len(b)-off < 8 {
			return recs, off
		}
		n := int(binary.BigEndian.Uint32(b[off:]))
		sum := binary.BigEndian.Uint32(b[off+4:])
		if n < 0 || n > maxRecord || len(b)-off-8 < n {
			return recs, off
		}
		body := b[off+8 : off+8+n]
		if crc32.ChecksumIEEE(body) != sum {
			return recs, off
		}
		rec, err := protocol.DecodeJournalRecord(body)
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + n
	}
}

// compact reduces a record stream to the records still worth
// replaying: jobs with a fetched record vanish entirely, and each
// surviving job keeps its first submit record and (when present) its
// last completion record, in original log order. Last wins for
// completions because a job can legitimately complete more than once —
// an oversized result journals payload-less, the replay re-executes,
// and the re-execution appends a fresh completion; only the newest one
// (possibly a terminal error, or a reply that now fits the cap)
// reflects the job's final state.
func compact(recs []protocol.JournalRecord) []protocol.JournalRecord {
	fetched := make(map[uint64]bool)
	lastComplete := make(map[uint64]int)
	for i, r := range recs {
		switch r.Kind {
		case protocol.JournalFetched:
			fetched[r.JobID] = true
		case protocol.JournalComplete:
			lastComplete[r.JobID] = i
		}
	}
	var out []protocol.JournalRecord
	seenSubmit := make(map[uint64]bool)
	for i, r := range recs {
		if fetched[r.JobID] || r.Kind == protocol.JournalFetched {
			continue
		}
		switch r.Kind {
		case protocol.JournalSubmit:
			if seenSubmit[r.JobID] {
				continue // duplicated submit (e.g. replayed append); first wins
			}
			seenSubmit[r.JobID] = true
		case protocol.JournalComplete:
			if lastComplete[r.JobID] != i {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// rewriteLog atomically replaces the log with exactly recs.
func rewriteLog(dir string, recs []protocol.JournalRecord) error {
	path := filepath.Join(dir, walName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	err = writeRecords(f, recs)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	syncDir(dir)
	return nil
}

// writeRecords writes the file header and framed records.
func writeRecords(w io.Writer, recs []protocol.JournalRecord) error {
	b := []byte(fileHeader)
	for i := range recs {
		b = frame(b, &recs[i])
	}
	_, err := w.Write(b)
	return err
}
