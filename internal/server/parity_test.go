package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"

	"ninf/internal/mux"
	"ninf/internal/protocol"
)

// TestVerbParity sends the same script of requests — every verb, plus
// malformed payloads, unknown routines and jobs, a not-ready job, a
// failed job and an unexpected frame type — to two identically
// configured servers, one through the lockstep framer and one through
// the multiplexed framer, and requires identical replies (type and
// payload, timings aside) and identical delivered marks on the fetched
// jobs. The framers only move frames; anything a verb decides belongs
// to the one handler behind both, and this test is what notices verb
// logic growing back into a framer.
func TestVerbParity(t *testing.T) {
	type exchange func(typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte)
	type outcome struct {
		replies   []string
		delivered map[string]bool
	}
	// run plays the script against a fresh server through one framer.
	run := func(t *testing.T, framer func(*testing.T, *Server) exchange) outcome {
		reg, release := testRegistry(t)
		s := New(Config{PEs: 2, Hostname: "parity"}, reg)
		defer s.Close()
		send := framer(t, s)
		var out outcome
		// step records one reply; mask drops the leading bytes that
		// legitimately differ between runs (the three reply timings), and
		// a negative mask keeps only the length.
		step := func(what string, typ protocol.MsgType, payload []byte, mask int) []byte {
			rt, rp := send(typ, payload)
			shown := fmt.Sprintf("%x", rp)
			switch {
			case mask < 0:
				shown = fmt.Sprintf("len=%d", len(rp))
			case mask <= len(rp):
				shown = fmt.Sprintf("%x", rp[mask:])
			}
			out.replies = append(out.replies, fmt.Sprintf("%s → %v %s", what, rt, shown))
			return rp
		}
		submit := func(what string, key uint64, call []byte) uint64 {
			sr, err := protocol.DecodeSubmitReply(step(what, protocol.MsgSubmit, submitPayload(key, call), 0))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return sr.JobID
		}
		fetch := func(id uint64, wait bool) []byte {
			fr := protocol.FetchRequest{JobID: id, Wait: wait}
			return fr.Encode()
		}
		iface := func(name string) []byte {
			ir := protocol.InterfaceRequest{Name: name}
			return ir.Encode()
		}

		step("ping", protocol.MsgPing, nil, 0)
		step("list", protocol.MsgList, nil, 0)
		step("stats", protocol.MsgStats, nil, -1)
		step("trace", protocol.MsgTrace, nil, -1)
		step("interface", protocol.MsgInterface, iface("double_it"), 0)
		step("interface malformed", protocol.MsgInterface, []byte{1}, 0)
		step("interface unknown", protocol.MsgInterface, iface("nosuch"), 0)
		step("call", protocol.MsgCall, encodeCall(t, reg, "double_it", int64(2), []float64{1, 2}, nil), 24)
		step("call malformed", protocol.MsgCall, []byte{0, 0}, 0)
		step("call unknown", protocol.MsgCall, append(iface("nosuch"), 0, 0, 0, 1), 0)
		step("call failing", protocol.MsgCall, encodeCall(t, reg, "boom", int64(1)), 0)
		step("call panicking", protocol.MsgCall, encodeCall(t, reg, "panics", int64(1)), 0)

		okJob := submit("submit", 1, encodeCall(t, reg, "double_it", int64(1), []float64{3}, nil))
		submit("submit duplicate key", 1, encodeCall(t, reg, "double_it", int64(1), []float64{3}, nil))
		step("submit malformed", protocol.MsgSubmit, []byte{1, 2, 3}, 0)
		step("submit unknown", protocol.MsgSubmit, submitPayload(2, append(iface("nosuch"), 0, 0, 0, 1)), 0)
		step("fetch malformed", protocol.MsgFetch, []byte{9}, 0)
		step("fetch unknown job", protocol.MsgFetch, fetch(1<<30, false), 0)
		blocked := submit("submit blocking", 3, encodeCall(t, reg, "block", int64(1)))
		step("fetch not ready", protocol.MsgFetch, fetch(blocked, false), 0)
		close(release)
		step("fetch", protocol.MsgFetch, fetch(okJob, true), 24)
		step("fetch again", protocol.MsgFetch, fetch(okJob, false), 24)
		failed := submit("submit failing", 4, encodeCall(t, reg, "boom", int64(1)))
		step("fetch failed job", protocol.MsgFetch, fetch(failed, true), 0)
		step("fetch released job", protocol.MsgFetch, fetch(blocked, true), 24)

		step("digest query without cache", protocol.MsgCallDigest, nil, 0)
		step("data handle without cache", protocol.MsgDataHandle, make([]byte, 16), 0)
		step("reply type as request", protocol.MsgPong, nil, 0)
		step("unknown type", protocol.MsgType(999), []byte{1}, 0)

		// The delivered mark is the reply's after-write hook: it lands
		// shortly after the reply, on the serving side's own schedule.
		jobs := map[string]uint64{"ok": okJob, "failed": failed, "released": blocked}
		isDelivered := func(id uint64) bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			j, ok := s.jobs[id]
			return ok && j.delivered
		}
		waitFor(t, func() bool { return isDelivered(okJob) && isDelivered(blocked) }, "fetched jobs marked delivered")
		// One more exchange orders every earlier reply's hook before the
		// sample: both framers run a reply's hook before they write any
		// later reply.
		step("ping after", protocol.MsgPing, nil, 0)
		out.delivered = make(map[string]bool)
		for name, id := range jobs {
			out.delivered[name] = isDelivered(id)
		}
		return out
	}

	lockstep := func(t *testing.T, s *Server) exchange {
		conn := pipeConn(t, s)
		return func(typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte) {
			return call(t, conn, typ, payload)
		}
	}
	// The mux session claims the cache grant the server withheld, so the
	// two cache verbs reach the handler as a peer ignoring the grant
	// would send them, and must get lockstep's answer.
	muxed := func(t *testing.T, s *Server) exchange {
		cc, sc := net.Pipe()
		go s.ServeConn(sc)
		t.Cleanup(func() { sc.Close() })
		if _, err := mux.NegotiateHello(cc, 0); err != nil {
			t.Fatalf("negotiate: %v", err)
		}
		sess := mux.Open(cc, 0, true)
		t.Cleanup(func() { sess.Close() })
		return func(typ protocol.MsgType, payload []byte) (protocol.MsgType, []byte) {
			rt, fb, _, err := sess.Roundtrip(context.Background(), typ, protocol.BufferFor(payload))
			if err != nil {
				t.Fatalf("%v over mux: %v", typ, err)
			}
			defer fb.Release()
			return rt, bytes.Clone(fb.Payload())
		}
	}

	a, b := run(t, lockstep), run(t, muxed)
	if len(a.replies) != len(b.replies) {
		t.Fatalf("lockstep answered %d requests, mux %d", len(a.replies), len(b.replies))
	}
	for i := range a.replies {
		if a.replies[i] != b.replies[i] {
			t.Errorf("framers disagree:\n  lockstep: %s\n  mux:      %s", a.replies[i], b.replies[i])
		}
	}
	for name, want := range a.delivered {
		if got := b.delivered[name]; got != want {
			t.Errorf("%s job delivered: lockstep %v, mux %v", name, want, got)
		}
	}
	if !a.delivered["failed"] {
		t.Errorf("fetching a failed job did not mark it delivered")
	}
}
