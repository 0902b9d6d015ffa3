package metaserver

import (
	"testing"

	"ninf/internal/protocol"
)

// observer hands out GossipObserve records of one client about server
// s1, each seq new to a log that holds every earlier one.
type observer struct{ seq uint64 }

func (o *observer) fill(recs []protocol.GossipRecord) []protocol.GossipRecord {
	for i := range recs {
		o.seq++
		recs[i] = protocol.GossipRecord{Origin: "client", Seq: o.seq, Kind: protocol.GossipObserve,
			Name: "s1", Bytes: 1 << 20, Nanos: 1e6}
	}
	return recs
}

// withServer returns a metaserver that knows s1 and has applied logged
// observations of it.
func withServer(o *observer, logged int) *Metaserver {
	m := New(Config{Origin: "meta-a"})
	m.applyLocked([]protocol.GossipRecord{{Origin: "meta-b", Seq: 1, Kind: protocol.GossipRegister,
		Name: "s1", Addr: "127.0.0.1:9", Power: 10, AtUnixNanos: 1}})
	m.applyLocked(o.fill(make([]protocol.GossipRecord, logged)))
	return m
}

// TestLoopAllocsFlat drives each per-record loop of gossip handling
// over n and 8n records and holds the allocations at 8n to those at n
// plus 3: whatever a loop body allocates shows up 7n times over, while
// the per-call setup and a result slice's growth stay within the slack.
// A measured apply or add meets a full log (maxLogPerOrigin records),
// so it also prunes a record per record, as in steady state.
func TestLoopAllocsFlat(t *testing.T) {
	rows := []struct {
		name string
		at   func(n int) func()
	}{
		{"applyLocked", func(n int) func() {
			var o observer
			m := withServer(&o, maxLogPerOrigin)
			recs := make([]protocol.GossipRecord, n)
			return func() { m.applyLocked(o.fill(recs)) }
		}},
		{"originLog.add", func(n int) func() {
			var o observer
			l := withServer(&o, maxLogPerOrigin).log["client"]
			recs := make([]protocol.GossipRecord, n)
			return func() {
				for _, rec := range o.fill(recs) {
					l.add(rec)
				}
			}
		}},
		{"missingLocked", func(n int) func() {
			m := withServer(new(observer), n)
			return func() { m.missingLocked(nil) }
		}},
	}
	const n = 16
	for _, r := range rows {
		small := testing.AllocsPerRun(20, r.at(n))
		large := testing.AllocsPerRun(20, r.at(8*n))
		t.Logf("%s: %.1f allocations at %d records, %.1f at %d", r.name, small, n, large, 8*n)
		if large > small+3 {
			t.Errorf("%s: %.1f allocations at %d records, %.1f at %d: the loop allocates per record", r.name, small, n, large, 8*n)
		}
	}
}
