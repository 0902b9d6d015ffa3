package server

import (
	"slices"
	"testing"

	"ninf/internal/protocol"
	"ninf/internal/server/journal"
)

// TestExpiryDropsFinishedJobs: finished two-phase jobs leave the job
// table and the submit-key index by themselves, with no sweep to call.
// Delivered jobs go at the first two-phase exchange after deliveredTTL,
// a never-fetched one at the first after jobTTL — and only that one
// gets its fetched record from expiry, exactly once.
func TestExpiryDropsFinishedJobs(t *testing.T) {
	reg, _ := testRegistry(t)
	clk := newClock()
	s := newServer(Config{}, reg, clk.now)
	defer s.Close()
	dir := t.TempDir()
	attach(t, s, dir, journal.Options{})
	conn := pipeConn(t, s)

	submit := func(key uint64) uint64 {
		t.Helper()
		typ, p := call(t, conn, protocol.MsgSubmit, submitPayload(key, encodeCall(t, reg, "double_it", int64(1), []float64{float64(key)}, nil)))
		if typ != protocol.MsgSubmitOK {
			t.Fatalf("submit %d → %v", key, typ)
		}
		sr, err := protocol.DecodeSubmitReply(p)
		if err != nil {
			t.Fatal(err)
		}
		return sr.JobID
	}
	fetch := func(id uint64) protocol.MsgType {
		t.Helper()
		fr := protocol.FetchRequest{JobID: id, Wait: true}
		typ, _ := call(t, conn, protocol.MsgFetch, fr.Encode())
		return typ
	}
	table := func() (jobs, keys []uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for id := range s.jobs {
			jobs = append(jobs, id)
		}
		for key := range s.submitKeys {
			keys = append(keys, key)
		}
		slices.Sort(jobs)
		slices.Sort(keys)
		return jobs, keys
	}

	const delivered = 8
	for key := uint64(1); key <= delivered; key++ {
		if typ := fetch(submit(key)); typ != protocol.MsgFetchOK {
			t.Fatalf("fetch %d → %v", key, typ)
		}
	}
	const unfetchedKey = 100
	unfetched := submit(unfetchedKey)
	waitFor(t, func() bool { st := s.Stats(); return st.Running == 0 && st.Queued == 0 }, "jobs done")

	// Past deliveredTTL one more submit — a retry of the unfetched job's,
	// answered with that job — leaves only the unfetched job.
	clk.advance(deliveredTTL + 1)
	if id := submit(unfetchedKey); id != unfetched {
		t.Fatalf("re-submit admitted job %d, want %d", id, unfetched)
	}
	if jobs, keys := table(); !slices.Equal(jobs, []uint64{unfetched}) || !slices.Equal(keys, []uint64{unfetchedKey}) {
		t.Fatalf("past deliveredTTL: jobs %v, keys %v; want [%d], [%d]", jobs, keys, unfetched, unfetchedKey)
	}

	// Past jobTTL the next exchange drops it too.
	clk.advance(jobTTL)
	if typ := fetch(unfetched); typ != protocol.MsgError {
		t.Fatalf("fetch past jobTTL → %v, want unknown job", typ)
	}
	if jobs, keys := table(); len(jobs) != 0 || len(keys) != 0 {
		t.Fatalf("past jobTTL: jobs %v, keys %v; want none", jobs, keys)
	}
	fetched := 0
	for _, r := range walRecords(t, dir) {
		if r.Kind == protocol.JournalFetched && r.JobID == unfetched {
			fetched++
		}
	}
	if fetched != 1 {
		t.Errorf("journal holds %d fetched records for the expired job, want 1", fetched)
	}
}
