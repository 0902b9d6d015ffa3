package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ninf/internal/idl"
	"ninf/internal/protocol"
	"ninf/internal/server/journal"
)

// Who waits for the journal, and for what (DESIGN.md §7): a SubmitOK
// for its submit record, a fetch for the completion record, nobody for
// the delivery record or the interval fsync.

// walRecords scans the journal directory's live log.
func walRecords(t *testing.T, dir string) []protocol.JournalRecord {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := journal.ScanRecords(b)
	return recs
}

// quiet reports whether nothing arrives on ch for a while.
func quiet[T any](ch <-chan T) bool {
	select {
	case <-ch:
		return false
	case <-time.After(50 * time.Millisecond):
		return true
	}
}

// TestJournalSubmitRecordIsArrivalBytes pins the submit-record
// shortcut: a submission that arrives as one inline frame is journaled
// as its own bytes, and those are exactly what re-encoding the decoded
// call (journalSubmitPayload, still used for chunked and digest-bearing
// submits) would write — for every test routine, bare, with a deadline
// and with retain set.
func TestJournalSubmitRecordIsArrivalBytes(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 4}, reg)
	dir := t.TempDir()
	attach(t, s, dir, journal.Options{})
	t.Cleanup(func() { close(release); s.Close() })
	conn := pipeConn(t, s)

	args := map[string][]idl.Value{
		"double_it": {int64(3), []float64{1, 2, 3}, nil},
		"block":     {int64(1)},
		"boom":      {int64(2)},
		"panics":    {int64(3)},
	}
	trailers := []struct {
		name string
		set  func(*protocol.CallRequest)
	}{
		{"none", func(*protocol.CallRequest) {}},
		{"deadline", func(r *protocol.CallRequest) { r.Deadline = time.Now().Add(time.Hour).UnixNano() }},
		{"retain", func(r *protocol.CallRequest) { r.Retain = true }},
	}
	key := uint64(100)
	for _, name := range reg.Names() {
		info := reg.Lookup(name).Info
		for _, tr := range trailers {
			key++
			req := &protocol.CallRequest{Name: name, Args: args[name]}
			tr.set(req)
			_, fb, err := protocol.EncodeRequest(info, protocol.MsgSubmit, req, key, protocol.Shape{})
			if err != nil {
				t.Fatal(err)
			}
			arrival := protocol.CopyOut(fb)
			typ, rp := call(t, conn, protocol.MsgSubmit, arrival)
			if typ != protocol.MsgSubmitOK {
				t.Fatalf("%s/%s: submit → %v", name, tr.name, typ)
			}
			sr, err := protocol.DecodeSubmitReply(rp)
			if err != nil {
				t.Fatal(err)
			}

			var got *protocol.JournalRecord
			for _, r := range walRecords(t, dir) {
				if r.Kind == protocol.JournalSubmit && r.JobID == sr.JobID {
					got = &r
				}
			}
			if got == nil {
				t.Fatalf("%s/%s: SubmitOK for job %d with no submit record in the log", name, tr.name, sr.JobID)
			}
			_, rest, err := protocol.DecodeSubmitKey(arrival)
			if err != nil {
				t.Fatal(err)
			}
			_, argBytes, err := protocol.DecodeCallName(rest)
			if err != nil {
				t.Fatal(err)
			}
			var retain bool
			vals, deadline, err := protocol.DecodeCallArgsPooled(info, argBytes, nil, &retain, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := journalSubmitPayload(info,
				&protocol.CallRequest{Name: name, Args: vals, Deadline: deadline, Retain: retain})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Payload, rest) {
				t.Errorf("%s/%s: journaled payload is not the arrival bytes", name, tr.name)
			}
			if !bytes.Equal(got.Payload, want) {
				t.Errorf("%s/%s: arrival bytes differ from the re-encode:\n%x\n%x", name, tr.name, got.Payload, want)
			}
			if got.Key != key {
				t.Errorf("%s/%s: record key %d, want %d", name, tr.name, got.Key, key)
			}
		}
	}
}

// TestJournalAckWaitsForItsRecord holds the journal's file write: the
// SubmitOK of a job whose record is held is not sent, and a fetch of a
// job whose completion record is held does not answer, until the write
// goes through.
func TestJournalAckWaitsForItsRecord(t *testing.T) {
	reg, release := testRegistry(t)
	s := New(Config{PEs: 2}, reg)
	if _, err := s.AttachJournal(t.TempDir(), journal.Options{Fsync: journal.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	// held has room for every write the test can hold, so a hook never
	// blocks announcing itself after a failure stopped the receiving.
	held, pass := make(chan struct{}, 4), make(chan struct{})
	s.journal.SetIOHook(func(op string) {
		if op == "write" && armed.Load() {
			held <- struct{}{}
			<-pass
		}
	})
	var unhold sync.Once
	t.Cleanup(func() { s.Close() })
	t.Cleanup(func() { armed.Store(false); unhold.Do(func() { close(pass) }) })

	type answer struct {
		typ protocol.MsgType
		err error
	}
	ask := func(typ protocol.MsgType, payload []byte) <-chan answer {
		ch := make(chan answer, 1)
		conn := pipeConn(t, s)
		go func() {
			rt, _, err := callNB(conn, typ, payload)
			ch <- answer{rt, err}
		}()
		return ch
	}

	armed.Store(true)
	sub := ask(protocol.MsgSubmit, submitPayload(1, encodeCall(t, reg, "double_it", int64(1), []float64{1}, nil)))
	<-held
	if !quiet(sub) {
		t.Fatal("SubmitOK sent while its submit record's write was held")
	}
	armed.Store(false)
	pass <- struct{}{}
	if a := <-sub; a.err != nil || a.typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v, %v", a.typ, a.err)
	}

	typ, rp := call(t, pipeConn(t, s), protocol.MsgSubmit, submitPayload(2, encodeCall(t, reg, "block", int64(1))))
	if typ != protocol.MsgSubmitOK {
		t.Fatalf("submit → %v", typ)
	}
	sr, err := protocol.DecodeSubmitReply(rp)
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	close(release) // the job completes; its completion record's write is held
	<-held
	fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
	fetch := ask(protocol.MsgFetch, fr.Encode())
	if !quiet(fetch) {
		t.Fatal("fetch answered while the job's completion record was held")
	}
	armed.Store(false)
	pass <- struct{}{}
	if a := <-fetch; a.err != nil || a.typ != protocol.MsgFetchOK {
		t.Fatalf("fetch → %v, %v", a.typ, a.err)
	}
}

// TestJournalGroupCommitSubmits: under FsyncAlways, sixteen concurrent
// submits share fsyncs instead of paying one each, and no SubmitOK
// leaves before an fsync that covers its record has started — checked
// by reading the log inside the fsync hook, when the batch it flushes
// is exactly what the file holds.
func TestJournalGroupCommitSubmits(t *testing.T) {
	const n = 16
	reg, release := testRegistry(t)
	s := New(Config{PEs: 4}, reg)
	dir := t.TempDir()
	attach(t, s, dir, journal.Options{})
	var (
		mu      sync.Mutex
		syncs   int
		covered = make(map[uint64]bool)
	)
	first, pass := make(chan struct{}), make(chan struct{})
	var unhold sync.Once
	s.journal.SetIOHook(func(op string) {
		if op != "sync" {
			return
		}
		b, _ := os.ReadFile(filepath.Join(dir, "wal.log"))
		recs, _ := journal.ScanRecords(b)
		mu.Lock()
		syncs++
		k := syncs
		for _, r := range recs {
			covered[r.JobID] = true
		}
		mu.Unlock()
		if k == 1 {
			close(first)
			<-pass
		}
	})
	t.Cleanup(func() { s.Close() })
	t.Cleanup(func() { close(release); unhold.Do(func() { close(pass) }) })

	type ack struct {
		id      uint64
		covered bool
		err     error
	}
	acks := make(chan ack, n)
	for i := 0; i < n; i++ {
		conn, payload := pipeConn(t, s), submitPayload(uint64(i+1), encodeCall(t, reg, "block", int64(i)))
		go func() {
			typ, rp, err := callNB(conn, protocol.MsgSubmit, payload)
			if err == nil && typ != protocol.MsgSubmitOK {
				err = fmt.Errorf("submit → %v", typ)
			}
			var sr protocol.SubmitReply
			if err == nil {
				sr, err = protocol.DecodeSubmitReply(rp)
			}
			mu.Lock()
			c := covered[sr.JobID]
			mu.Unlock()
			acks <- ack{sr.JobID, c, err}
		}()
	}
	<-first
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) == n
	}, "every submit admitted behind the held fsync")
	if !quiet(acks) {
		t.Fatal("a SubmitOK left while the first batch's fsync was held")
	}
	unhold.Do(func() { close(pass) })
	for i := 0; i < n; i++ {
		a := <-acks
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !a.covered {
			t.Errorf("SubmitOK for job %d before any fsync covered its record", a.id)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d submits, %d fsyncs", n, syncs)
	if syncs >= n {
		t.Fatalf("%d concurrent submits made %d fsyncs: no batching", n, syncs)
	}
}

// TestJournalSyncStallSparesReplies holds the interval fsync for good:
// on a multiplexed session — where a fetch reply's sent hook runs on
// the connection's writer — submits, fetches and pings keep being
// answered, and Close tears the connection down without waiting for the
// fsync, returning once it is let go.
func TestJournalSyncStallSparesReplies(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(Config{PEs: 2}, reg)
	if _, err := s.AttachJournal(t.TempDir(), journal.Options{SyncEvery: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	held, pass := make(chan struct{}), make(chan struct{})
	var first, unhold sync.Once
	s.journal.SetIOHook(func(op string) {
		if op == "sync" {
			first.Do(func() { close(held) })
			<-pass
		}
	})
	t.Cleanup(func() { s.Close() })
	t.Cleanup(func() { unhold.Do(func() { close(pass) }) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sess := muxSessionOn(t, conn)
	info := reg.Lookup("double_it").Info

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	roundtrip := func(typ protocol.MsgType, req *protocol.Buffer, want protocol.MsgType) []byte {
		t.Helper()
		rt, fb, _, err := sess.Roundtrip(ctx, typ, req)
		if err != nil {
			t.Fatalf("%v with the fsync held: %v", typ, err)
		}
		defer fb.Release()
		if rt != want {
			t.Fatalf("%v → %v, want %v", typ, rt, want)
		}
		return bytes.Clone(fb.Payload())
	}
	round := func(i int) {
		vals := []idl.Value{int64(1), []float64{float64(i)}, nil}
		req, err := protocol.EncodeSubmitRequestBuf(info, &protocol.CallRequest{Name: "double_it", Args: vals}, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := protocol.DecodeSubmitReply(roundtrip(protocol.MsgSubmit, req, protocol.MsgSubmitOK))
		if err != nil {
			t.Fatal(err)
		}
		fr := protocol.FetchRequest{JobID: sr.JobID, Wait: true}
		_, out, err := protocol.DecodeCallReply(info, vals, roundtrip(protocol.MsgFetch, fr.EncodeBuf(), protocol.MsgFetchOK))
		if err != nil || out[2].([]float64)[0] != float64(2*i) {
			t.Fatalf("round %d: fetched %v, %v", i, out, err)
		}
		roundtrip(protocol.MsgPing, emptyReq(), protocol.MsgPong)
	}

	round(0)
	select {
	case <-held:
	case <-ctx.Done():
		t.Fatal("the interval fsync never ran")
	}
	for i := 1; i <= 20; i++ {
		round(i)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	if _, fb, _, err := sess.Roundtrip(ctx, protocol.MsgPing, emptyReq()); err == nil {
		// The ping may have beaten the teardown; wait for it.
		fb.Release()
		for !sess.Broken() && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if ctx.Err() != nil {
		t.Fatal("Close did not tear down the session while the fsync was held")
	}
	unhold.Do(func() { close(pass) })
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the fsync was let go")
	}
}
