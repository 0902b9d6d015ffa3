package journal

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ninf/internal/protocol"
)

func openT(t *testing.T, dir string, opts Options) (*Journal, []protocol.JournalRecord) {
	t.Helper()
	j, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, recs
}

func TestEpochAdvancesPerOpen(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		j, _ := openT(t, dir, Options{})
		if got := j.Epoch(); got != want {
			t.Fatalf("open %d: epoch = %d, want %d", want, got, want)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestEpochCorruptRestartsAtOne(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	j.Close()
	if err := os.WriteFile(filepath.Join(dir, "epoch"), []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, _ = openT(t, dir, Options{})
	defer j.Close()
	if got := j.Epoch(); got != 1 {
		t.Fatalf("epoch after corruption = %d, want 1", got)
	}
}

func TestAppendSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, dir, Options{Fsync: FsyncAlways})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	sub := &protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 7, Key: 42, Client: "c1", Payload: []byte("req")}
	if err := j.Append(sub); err != nil {
		t.Fatalf("Append: %v", err)
	}
	com := &protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: 7, Payload: []byte("reply")}
	if err := j.Append(com); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()

	j, recs = openT(t, dir, Options{})
	defer j.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if recs[0].Kind != protocol.JournalSubmit || recs[0].JobID != 7 || recs[0].Key != 42 ||
		recs[0].Client != "c1" || string(recs[0].Payload) != "req" {
		t.Fatalf("submit record corrupted: %+v", recs[0])
	}
	if recs[1].Kind != protocol.JournalComplete || string(recs[1].Payload) != "reply" {
		t.Fatalf("complete record corrupted: %+v", recs[1])
	}
}

func TestFetchedJobsCompactAway(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	for id := uint64(1); id <= 3; id++ {
		j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: id, Key: id * 10})
		j.Append(&protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: id, Payload: []byte("r")})
	}
	// Jobs 1 and 3 delivered; job 2 still fetchable.
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalFetched, JobID: 1})
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalFetched, JobID: 3})
	j.Close()

	j, recs := openT(t, dir, Options{})
	j.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (submit+complete of job 2): %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.JobID != 2 {
			t.Fatalf("record for delivered job %d survived compaction", r.JobID)
		}
	}

	// The rewrite shrank the on-disk log to just the survivors: a third
	// open sees the same two records without rescanning history.
	j, recs = openT(t, dir, Options{})
	j.Close()
	if len(recs) != 2 {
		t.Fatalf("after compaction replay got %d records, want 2", len(recs))
	}
}

// TestCompactKeepsLastCompletion pins last-wins for completion
// records. A job can complete more than once — an oversized result
// journals payload-less, replay re-executes, and the re-execution
// appends a fresh completion — and only the newest record reflects the
// job's final state: keeping the first would re-execute the job on
// every subsequent restart even after it reached a terminal error.
func TestCompactKeepsLastCompletion(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 11, Payload: []byte("req")})
	// Oversized success: completed-without-payload.
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: 1})
	// Re-execution after a restart ends in a terminal error.
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: 1, ErrCode: 3, ErrDetail: "boom"})
	j.Close()

	j, recs := openT(t, dir, Options{})
	j.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want submit+last completion: %+v", len(recs), recs)
	}
	if recs[0].Kind != protocol.JournalSubmit {
		t.Fatalf("first surviving record = %+v, want the submit", recs[0])
	}
	if recs[1].Kind != protocol.JournalComplete || recs[1].ErrCode != 3 || recs[1].ErrDetail != "boom" {
		t.Fatalf("surviving completion = %+v, want the later terminal error, not the payload-less first", recs[1])
	}
}

// TestLockExcludesSecondProcess proves two server processes cannot
// share a journal directory: the child process (this test binary
// re-run with the directory in the environment) must fail to Open
// while the parent holds the lock, and succeed once it is released.
func TestLockExcludesSecondProcess(t *testing.T) {
	if dir := os.Getenv("NINF_JOURNAL_LOCK_DIR"); dir != "" {
		// Child mode: report the Open outcome on stdout for the parent.
		j, _, err := Open(dir, Options{})
		if err != nil {
			fmt.Println("CHILD-LOCKED")
			return
		}
		j.Close()
		fmt.Println("CHILD-ACQUIRED")
		return
	}
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	child := func() string {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestLockExcludesSecondProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "NINF_JOURNAL_LOCK_DIR="+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return string(out)
	}
	if out := child(); !strings.Contains(out, "CHILD-LOCKED") {
		t.Fatalf("second process opened a held journal directory:\n%s", out)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if out := child(); !strings.Contains(out, "CHILD-ACQUIRED") {
		t.Fatalf("lock not released by Close:\n%s", out)
	}
}

// TestLockAllowsSameProcessReopen pins the fcntl lock's per-process
// scope: reopening the directory within one process — how the chaos
// suite and the restart experiment simulate a crash+restart while the
// abandoned journal's descriptors are still open — must succeed.
func TestLockAllowsSameProcessReopen(t *testing.T) {
	dir := t.TempDir()
	j1, _ := openT(t, dir, Options{})
	defer j1.Close()
	j2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("same-process reopen: %v", err)
	}
	j2.Close()
}

func TestTornTailStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 1})
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 2, Key: 2})
	j.Close()

	// Simulate a crash mid-append: a record header promising more bytes
	// than the file holds.
	path := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01})
	f.Close()

	j, recs := openT(t, dir, Options{})
	j.Close()
	if len(recs) != 2 {
		t.Fatalf("replay across torn tail got %d records, want 2", len(recs))
	}

	// The compaction rewrite dropped the torn bytes: the log now ends at
	// the last whole record.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, off := ScanRecords(b); off != len(b) {
		t.Fatalf("rewritten log still has %d trailing bytes past the clean prefix", len(b)-off)
	}
}

func TestCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 1, Payload: []byte("aaaa")})
	j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 2, Key: 2, Payload: []byte("bbbb")})
	j.Close()

	path := filepath.Join(dir, "wal.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip a byte in the last record's body
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs := openT(t, dir, Options{})
	j.Close()
	if len(recs) != 1 || recs[0].JobID != 1 {
		t.Fatalf("replay past corrupt record got %+v, want only job 1", recs)
	}
}

func TestScanRecordsRejectsBadHeader(t *testing.T) {
	if recs, off := ScanRecords([]byte("NOTAWAL!....")); recs != nil || off != 0 {
		t.Fatalf("scan of bad header returned %d records at offset %d", len(recs), off)
	}
	if recs, _ := ScanRecords(nil); recs != nil {
		t.Fatalf("scan of empty input returned records")
	}
}

// TestOpenRefusesForeignLog: a log under a header Open cannot read — an
// older format's or another program's — is an error that names the
// header, and the file is left byte for byte as it was, not compacted
// to an empty log.
func TestOpenRefusesForeignLog(t *testing.T) {
	for _, header := range []string{"NINFWAL1", "NINFWAL9"} {
		t.Run(header, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, walName)
			log := append([]byte(header), make([]byte, 48)...)
			log[len(header)+3] = 40 // a plausible first record length
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			j, _, err := Open(dir, Options{})
			if err == nil {
				j.Close()
				t.Fatal("Open accepted the log")
			}
			if !strings.Contains(err.Error(), strconv.Quote(header)) {
				t.Errorf("error %q does not name the header %q", err, header)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
				t.Fatalf("log changed: now %d bytes %q (%v), was %d bytes", len(got), got[:min(len(got), 8)], err, len(log))
			}
		})
	}
}

func TestFsyncIntervalBatches(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncInterval, SyncEvery: time.Hour})
	defer j.Close()
	// With a huge interval no append syncs; this only asserts the policy
	// path executes without error and Sync flushes on demand.
	for id := uint64(1); id <= 10; id++ {
		if err := j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: id, Key: id}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	j.Close()
	if err := j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"always": FsyncAlways, "never": FsyncNever, "interval": FsyncInterval,
		"": FsyncInterval, " Always ": FsyncAlways,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
	for _, p := range []Policy{FsyncAlways, FsyncNever, FsyncInterval} {
		if rt, err := ParsePolicy(p.String()); err != nil || rt != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), rt, err)
		}
	}
}

// FuzzScanRecords hammers the replay scanner with arbitrary bytes: it
// must neither panic nor over-allocate, and whatever clean prefix it
// reports must itself rescan to the same records.
func FuzzScanRecords(f *testing.F) {
	f.Add([]byte(fileHeader))
	dir := f.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err == nil {
		j.Append(&protocol.JournalRecord{Kind: protocol.JournalSubmit, JobID: 1, Key: 9, Client: "c", Payload: []byte("xyz")})
		j.Append(&protocol.JournalRecord{Kind: protocol.JournalComplete, JobID: 1, ErrCode: 3, ErrDetail: "boom"})
		j.Close()
		if b, err := os.ReadFile(filepath.Join(dir, walName)); err == nil {
			f.Add(b)
			f.Add(b[:len(b)-3]) // torn tail
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, off := ScanRecords(b)
		if off < 0 || off > len(b) {
			t.Fatalf("offset %d out of range [0,%d]", off, len(b))
		}
		recs2, off2 := ScanRecords(b[:off])
		if off2 != off || len(recs2) != len(recs) {
			t.Fatalf("clean prefix rescan: %d records at %d, want %d at %d", len(recs2), off2, len(recs), off)
		}
	})
}
