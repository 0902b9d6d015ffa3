package server

import (
	"testing"

	"ninf/internal/idl"
	"ninf/internal/protocol"
	"ninf/internal/server/journal"
)

// attach opens the journal on s with fsync-always (tests simulate
// crashes by abandoning the server, so every record must be on disk the
// moment the server acknowledged it).
func attach(t *testing.T, s *Server, dir string, opts journal.Options) Recovery {
	t.Helper()
	opts.Fsync = journal.FsyncAlways
	rec, err := s.AttachJournal(dir, opts)
	if err != nil {
		t.Fatalf("AttachJournal: %v", err)
	}
	return rec
}

// TestJournalRestoresCompletedResult proves a completed-but-unfetched
// two-phase result survives a crash: the restarted server re-serves it
// under the original job ID without re-executing.
func TestJournalRestoresCompletedResult(t *testing.T) {
	dir := t.TempDir()
	reg, _ := testRegistry(t)

	s1 := New(Config{}, reg)
	t.Cleanup(func() { s1.Close() })
	rec := attach(t, s1, dir, journal.Options{})
	if rec.Epoch != 1 || rec.Requeued != 0 || rec.Restored != 0 {
		t.Fatalf("fresh journal recovery = %+v", rec)
	}
	conn := pipeConn(t, s1)
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(11, encodeCall(t, reg, "double_it", int64(2), []float64{3, 4}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := s1.Stats()
		return st.Running == 0 && st.Queued == 0
	}, "job done")

	// Crash: abandon s1 without Close — only what the journal persisted
	// survives into the next incarnation.
	s2 := New(Config{}, reg)
	t.Cleanup(func() { s2.Close() })
	rec = attach(t, s2, dir, journal.Options{})
	if rec.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", rec.Epoch)
	}
	if rec.Restored != 1 || rec.Requeued != 0 || rec.Dropped != 0 {
		t.Fatalf("recovery = %+v, want exactly one restored job", rec)
	}
	if got := s2.Stats().TotalCalls; got != 0 {
		t.Fatalf("restored job re-executed: TotalCalls = %d", got)
	}

	conn2 := pipeConn(t, s2)
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	typ, rp = call(t, conn2, protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgFetchOK {
		t.Fatalf("fetch after restart → %v", typ)
	}
	info := reg.Lookup("double_it").Info
	vals := []idl.Value{int64(2), []float64{3, 4}, nil}
	_, out, err := protocol.DecodeCallReplyBulk(info, vals, rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := out[2].([]float64)
	if len(w) != 2 || w[0] != 6 || w[1] != 8 {
		t.Fatalf("restored result = %v, want [6 8]", w)
	}
}

// TestJournalRequeuesUnfinished proves a job that was queued or running
// at the crash is re-executed by the restarted server and remains
// fetchable under its original ID and idempotency key.
func TestJournalRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	reg1, _ := testRegistry(t) // release never closed: job stuck running
	s1 := New(Config{}, reg1)
	t.Cleanup(func() { s1.Close() })
	attach(t, s1, dir, journal.Options{})
	conn := pipeConn(t, s1)
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(22, encodeCall(t, reg1, "block", int64(1))))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}

	// Crash while the job runs; restart with a registry whose release
	// channel this test controls.
	reg2, release2 := testRegistry(t)
	s2 := New(Config{}, reg2)
	t.Cleanup(func() { s2.Close() })
	rec := attach(t, s2, dir, journal.Options{})
	if rec.Requeued != 1 || rec.Restored != 0 || rec.Dropped != 0 {
		t.Fatalf("recovery = %+v, want exactly one requeued job", rec)
	}

	// The original idempotency key is pinned to the replayed job: a
	// client retrying its submit across the crash re-attaches instead of
	// executing a second copy.
	typ, rp = call(t, pipeConn(t, s2), protocol.MsgSubmit, submitPayload(22, encodeCall(t, reg2, "block", int64(1))))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("re-submit → %v", typ)
	}
	sr2, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.JobID != sr.JobID {
		t.Fatalf("re-submit under journaled key admitted job %d, want %d", sr2.JobID, sr.JobID)
	}

	close(release2)
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	typ, _ = call(t, pipeConn(t, s2), protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgFetchOK {
		t.Fatalf("fetch of requeued job → %v", typ)
	}
}

// TestJournalRestoresTerminalError proves a job that failed before the
// crash reports the same terminal error after restart instead of
// re-executing or vanishing.
func TestJournalRestoresTerminalError(t *testing.T) {
	dir := t.TempDir()
	reg, _ := testRegistry(t)
	s1 := New(Config{}, reg)
	t.Cleanup(func() { s1.Close() })
	attach(t, s1, dir, journal.Options{})
	conn := pipeConn(t, s1)
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(33, encodeCall(t, reg, "boom", int64(1))))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := s1.Stats()
		return st.Running == 0 && st.Queued == 0
	}, "job failed")

	s2 := New(Config{}, reg)
	t.Cleanup(func() { s2.Close() })
	rec := attach(t, s2, dir, journal.Options{})
	if rec.Restored != 1 {
		t.Fatalf("recovery = %+v, want the failed job restored", rec)
	}
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	typ, rp = call(t, pipeConn(t, s2), protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgError {
		t.Fatalf("fetch of failed job → %v, want the journaled error", typ)
	}
	er, err := protocol.DecodeErrorReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != protocol.CodeExecFailed {
		t.Errorf("code = %d, want exec-failed", er.Code)
	}
}

// TestJournalOversizedResultReexecutes proves a result above the
// journal's inline cap is recorded completed-without-payload and the
// replayed job re-executes rather than serving a truncated reply.
func TestJournalOversizedResultReexecutes(t *testing.T) {
	dir := t.TempDir()
	reg, _ := testRegistry(t)
	s1 := New(Config{}, reg)
	t.Cleanup(func() { s1.Close() })
	attach(t, s1, dir, journal.Options{ResultCap: 16}) // reply is ~10 doubles + framing, far over 16 bytes
	conn := pipeConn(t, s1)
	in := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(44, encodeCall(t, reg, "double_it", int64(10), in, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := s1.Stats()
		return st.Running == 0 && st.Queued == 0
	}, "job done")

	s2 := New(Config{}, reg)
	t.Cleanup(func() { s2.Close() })
	rec := attach(t, s2, dir, journal.Options{ResultCap: 16})
	if rec.Requeued != 1 || rec.Restored != 0 {
		t.Fatalf("recovery = %+v, want the oversized job requeued for re-execution", rec)
	}
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	typ, rp = call(t, pipeConn(t, s2), protocol.MsgFetch, fr.Encode())
	if typ != protocol.MsgFetchOK {
		t.Fatalf("fetch of re-executed job → %v", typ)
	}
	info := reg.Lookup("double_it").Info
	vals := []idl.Value{int64(10), in, nil}
	_, out, err := protocol.DecodeCallReplyBulk(info, vals, rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := out[2].([]float64); w[9] != 20 {
		t.Fatalf("re-executed result tail = %v, want 20", w[9])
	}
}

// TestJournalJobIDsNotReusedAcrossRestart pins incarnation-scoped job
// IDs. A delivered job's records compact away (and under interval
// fsync the newest acknowledged submits may never hit disk), so a
// counter reseeded from the journal's survivors alone could re-mint an
// ID already issued before the crash — and a pre-crash client's
// retried Fetch on that ID would silently read another job's result.
// The restarted server must instead answer CodeUnknownJob.
func TestJournalJobIDsNotReusedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg, _ := testRegistry(t)
	s1 := New(Config{}, reg)
	t.Cleanup(func() { s1.Close() })
	attach(t, s1, dir, journal.Options{})
	conn := pipeConn(t, s1)
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(11, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr1, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the result: the fetched record makes the whole job compact
	// away, leaving the journal with no trace the ID was ever issued.
	fr := protocol.FetchRequest{JobID: sr1.JobID, Wait: true}
	if typ, _ = call(t, conn, protocol.MsgFetch, fr.Encode()); typ != protocol.MsgFetchOK {
		t.Fatalf("fetch → %v", typ)
	}
	// The fetched record is appended after the reply frame is written;
	// it has hit the log (FsyncAlways, under mu with the delivery mark)
	// once the job reads as delivered.
	waitFor(t, func() bool {
		s1.mu.Lock()
		jt := s1.jobs[sr1.JobID]
		delivered := jt != nil && jt.delivered
		s1.mu.Unlock()
		return delivered
	}, "fetched record journaled")

	// Crash and restart from the (now job-free) journal.
	s2 := New(Config{}, reg)
	t.Cleanup(func() { s2.Close() })
	rec := attach(t, s2, dir, journal.Options{})
	if rec.Restored != 0 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v, want empty (job was delivered)", rec)
	}

	conn2 := pipeConn(t, s2)
	typ, rp = call(t, conn2, protocol.MsgSubmit, submitPayload(22, encodeCall(t, reg, "double_it", int64(1), []float64{2}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit after restart → %v", typ)
	}
	sr2, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if sr2.JobID == sr1.JobID {
		t.Fatalf("restarted server re-minted pre-crash job ID %d", sr1.JobID)
	}
	if got, want := sr2.JobID>>jobIDEpochShift, rec.Epoch; got != want {
		t.Fatalf("new job ID %d carries epoch %d, want %d", sr2.JobID, got, want)
	}

	// The pre-crash client's stale fetch must terminate, not alias onto
	// the new incarnation's job.
	stale := protocol.FetchRequest{JobID: sr1.JobID, Wait: false}
	typ, rp = call(t, conn2, protocol.MsgFetch, stale.Encode())
	if typ != protocol.MsgError {
		t.Fatalf("stale fetch → %v, want an error", typ)
	}
	if er, _ := protocol.DecodeErrorReply(rp); er.Code != protocol.CodeUnknownJob {
		t.Errorf("stale fetch code = %d, want unknown job", er.Code)
	}
}

// TestJournalEpochVisible proves the minted epoch reaches the two
// places clients and the metaserver read it: Stats and the hello reply.
func TestJournalEpochVisible(t *testing.T) {
	dir := t.TempDir()
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	t.Cleanup(func() { s.Close() })
	if got := s.Stats().Epoch; got != 0 {
		t.Fatalf("journal-less Stats.Epoch = %d, want 0", got)
	}
	attach(t, s, dir, journal.Options{})
	if got := s.Epoch(); got != 1 {
		t.Fatalf("Epoch() = %d, want 1", got)
	}
	if got := s.Stats().Epoch; got != 1 {
		t.Fatalf("Stats.Epoch = %d, want 1", got)
	}
	conn := pipeConn(t, s)
	hreq := protocol.HelloRequest{MaxVersion: protocol.MuxVersionCache}
	typ, rp := call(t, conn, protocol.MsgHello, hreq.Encode())
	if typ != protocol.MsgHelloOK {
		t.Fatalf("hello → %v", typ)
	}
	hr, err := protocol.DecodeHelloReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Epoch != 1 {
		t.Fatalf("hello Epoch = %d, want 1", hr.Epoch)
	}
}

// TestAttachJournalGuards pins the misuse errors: double attach, attach
// after work was admitted, attach after close.
func TestAttachJournalGuards(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	t.Cleanup(func() { s.Close() })
	attach(t, s, t.TempDir(), journal.Options{})
	if _, err := s.AttachJournal(t.TempDir(), journal.Options{}); err == nil {
		t.Fatal("second AttachJournal succeeded")
	}

	s2 := New(Config{}, reg)
	t.Cleanup(func() { s2.Close() })
	conn := pipeConn(t, s2)
	if typ, _ := call(t, conn, protocol.MsgSubmit, submitPayload(5, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil))); typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	if _, err := s2.AttachJournal(t.TempDir(), journal.Options{}); err == nil {
		t.Fatal("AttachJournal after admitting work succeeded")
	}

	s3 := New(Config{}, reg)
	s3.Close()
	if _, err := s3.AttachJournal(t.TempDir(), journal.Options{}); err == nil {
		t.Fatal("AttachJournal on closed server succeeded")
	}
}

// TestJournalLessUnchanged: without AttachJournal the server writes no
// files and advertises epoch 0.
func TestJournalLessUnchanged(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{}, reg)
	t.Cleanup(func() { s.Close() })
	conn := pipeConn(t, s)
	typ, rp := call(t, conn, protocol.MsgSubmit, submitPayload(66, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil)))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	if typ, _ = call(t, conn, protocol.MsgFetch, fr.Encode()); typ != protocol.MsgFetchOK {
		t.Fatalf("fetch → %v", typ)
	}
	hreq := protocol.HelloRequest{MaxVersion: protocol.MuxVersionCache}
	typ, rp = call(t, conn, protocol.MsgHello, hreq.Encode())
	if typ != protocol.MsgHelloOK {
		t.Fatalf("hello → %v", typ)
	}
	if hr, err := protocol.DecodeHelloReply(rp); err != nil || hr.Epoch != 0 {
		t.Fatalf("journal-less hello reply %+v, %v: want epoch 0", hr, err)
	}
	if s.Stats().Epoch != 0 || s.Epoch() != 0 {
		t.Fatal("journal-less server advertises an epoch")
	}
}
