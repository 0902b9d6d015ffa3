package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ninf/internal/protocol"
	"ninf/internal/xdr"
)

// refFrame is the framing the journal wrote before records were framed
// straight into the pending tail — the record encoded through an XDR
// stream encoder, then prefixed with its length and CRC — kept as the
// reference the one framer must match byte for byte.
func refFrame(r *protocol.JournalRecord) []byte {
	var body bytes.Buffer
	e := xdr.NewEncoder(&body)
	e.PutUint32(uint32(r.Kind))
	e.PutUint64(r.JobID)
	e.PutUint64(r.Key)
	e.PutString(r.Client)
	e.PutUint32(r.ErrCode)
	e.PutString(r.ErrDetail)
	e.PutOpaque(r.Payload)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(body.Len()))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body.Bytes()))
	return append(hdr[:], body.Bytes()...)
}

// sampleRecords covers every record kind and every padding remainder
// of each variable-length field.
func sampleRecords() []protocol.JournalRecord {
	var recs []protocol.JournalRecord
	for n := 0; n < 5; n++ {
		recs = append(recs,
			protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: uint64(10 + n), Key: uint64(1) << (8 * n),
				Client: strings.Repeat("c", n+9), Payload: bytes.Repeat([]byte{byte(n + 1)}, 3*n)},
			protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: uint64(10 + n), Payload: bytes.Repeat([]byte{0xfe}, n)},
			protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: uint64(20 + n), ErrCode: uint32(n + 1), ErrDetail: strings.Repeat("e", n)},
			protocol.JournalRecord{Kind: protocol.JournalFetched, JobID: uint64(10 + n)})
	}
	return recs
}

// TestFrameMatchesReference pins the on-disk format: for every record
// kind the framer writes exactly the old encoding plus its 8-byte
// header, alone and appended behind other records.
func TestFrameMatchesReference(t *testing.T) {
	var got, want []byte
	for i, r := range sampleRecords() {
		if one, ref := frame(nil, &r), refFrame(&r); !bytes.Equal(one, ref) {
			t.Fatalf("record %d (%+v):\nframe %x\nwant  %x", i, r, one, ref)
		}
		if body := r.Encode(); !bytes.Equal(body, refFrame(&r)[8:]) {
			t.Fatalf("record %d: Encode %x, want %x", i, body, refFrame(&r)[8:])
		}
		got = frame(got, &r)
		want = append(want, refFrame(&r)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("records framed behind one another differ from the reference stream")
	}
}

// TestScanReadsOldAndNewLogsAlike writes the same records as the old
// append path laid them down and through the new one (Enqueue, group
// Commit): the two files are byte-identical and scan to the same
// records.
func TestScanReadsOldAndNewLogsAlike(t *testing.T) {
	recs := sampleRecords()
	old := []byte(fileHeader)
	for i := range recs {
		old = append(old, refFrame(&recs[i])...)
	}

	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever})
	var last uint64
	for i := range recs {
		if i%3 == 2 {
			if err := j.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		last = j.Enqueue(&recs[i])
	}
	if err := j.Commit(last); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	neu, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(neu, old) {
		t.Fatalf("new log (%d bytes) differs from the old path's (%d bytes)", len(neu), len(old))
	}
	oldRecs, oldOff := ScanRecords(old)
	newRecs, newOff := ScanRecords(neu)
	if oldOff != len(old) || newOff != len(neu) || !reflect.DeepEqual(oldRecs, newRecs) || len(newRecs) != len(recs) {
		t.Fatalf("scan: old %d records to %d, new %d records to %d", len(oldRecs), oldOff, len(newRecs), newOff)
	}
}

// TestGroupCommitOneWritePerBatch holds the first writer inside its
// write until fifteen more records are enqueued behind it: the next
// committer writes and fsyncs all fifteen at once, the others return
// without a syscall, and every record is in the file.
func TestGroupCommitOneWritePerBatch(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	defer j.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var writes, syncs int
	var once sync.Once
	j.SetIOHook(func(op string) {
		if op == "sync" {
			syncs++ // under wmu: one writer at a time
			return
		}
		writes++
		once.Do(func() {
			close(held)
			<-release
		})
	})

	var wg sync.WaitGroup
	errs := make(chan error, n)
	commit := func(id uint64) {
		defer wg.Done()
		errs <- j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: id, Key: id})
	}
	wg.Add(1)
	go commit(1)
	<-held
	for id := uint64(2); id <= n; id++ {
		wg.Add(1)
		go commit(id)
	}
	for {
		j.mu.Lock()
		queued := len(j.tail)
		j.mu.Unlock()
		if queued == (n-1)*len(frame(nil, &protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 1})) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if writes != 2 || syncs != 2 {
		t.Fatalf("%d commits made %d writes and %d fsyncs, want 2 and 2", n, writes, syncs)
	}
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := ScanRecords(b); len(recs) != n {
		t.Fatalf("log holds %d records, want %d", len(recs), n)
	}
}

// TestCommitOfWrittenTicketIsFree: a ticket the file already reached
// commits without touching the file again.
func TestCommitOfWrittenTicketIsFree(t *testing.T) {
	j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncAlways})
	defer j.Close()
	tk := j.Enqueue(&protocol.JournalRecord{Kind: protocol.JournalFetched, JobID: 1})
	if err := j.Commit(tk); err != nil {
		t.Fatal(err)
	}
	writes, syncs := countIO(j)
	for i := 0; i < 3; i++ {
		if err := j.Commit(tk); err != nil {
			t.Fatal(err)
		}
	}
	if writes.Load() != 0 || syncs.Load() != 0 {
		t.Fatalf("re-committing a written ticket made %d writes, %d fsyncs", writes.Load(), syncs.Load())
	}
}

// TestCommitAfterCloseFails: what was enqueued before Close is written
// by it; a record enqueued after it is dropped and its Commit fails.
func TestCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever})
	before := j.Enqueue(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(before); err != nil {
		t.Fatalf("commit of a record Close wrote: %v", err)
	}
	if err := j.Commit(j.Enqueue(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 2, Key: 2})); err == nil {
		t.Fatal("commit of a record enqueued after Close succeeded")
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
	j, recs := openT(t, dir, Options{})
	j.Close()
	if len(recs) != 1 || recs[0].JobID != 1 {
		t.Fatalf("replayed %+v, want only job 1", recs)
	}
}

// TestFsyncIntervalSyncsWhenIdle is the interval bound with no traffic
// after the last append: the journal's own syncer flushes it within a
// few periods — before, the check ran only on the next append, so an
// idle server left its last acknowledged submits unsynced until Close.
func TestFsyncIntervalSyncsWhenIdle(t *testing.T) {
	const every = 20 * time.Millisecond
	j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncInterval, SyncEvery: every})
	_, syncs := countIO(j)
	if err := j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for syncs.Load() == 0 && time.Since(start) < 3*every {
		time.Sleep(time.Millisecond)
	}
	if syncs.Load() == 0 {
		t.Fatalf("no fsync within %v of the last append", 3*every)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.stopped:
	default:
		t.Fatal("Close returned with the syncer still running")
	}
}

// TestFsyncIntervalIdleWithoutAppends: a journal nobody appends to
// never fsyncs.
func TestFsyncIntervalIdleWithoutAppends(t *testing.T) {
	const every = 20 * time.Millisecond
	j, _ := openT(t, t.TempDir(), Options{Fsync: FsyncInterval, SyncEvery: every})
	_, syncs := countIO(j)
	time.Sleep(4 * every)
	if n := syncs.Load(); n != 0 {
		t.Fatalf("%d fsyncs with nothing appended", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlyIntervalStartsASyncer: the other policies run no goroutine.
func TestOnlyIntervalStartsASyncer(t *testing.T) {
	for _, p := range []Policy{FsyncAlways, FsyncNever} {
		j, _ := openT(t, t.TempDir(), Options{Fsync: p})
		if j.stop != nil {
			t.Errorf("%v started a syncer", p)
		}
		j.Close()
	}
}
