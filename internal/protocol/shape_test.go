package protocol

import (
	"strings"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// TestNewShape holds the shape constructor to the two things a
// connection decides, on the golden interfaces with every eligible
// array's digest offered and warm. A threshold of 0 — a lockstep
// connection — keeps every array inline whatever the grant; from a
// threshold up arrays ride as segments, and only the cache grant turns
// them into digest markers. A reply, built without digests, is a plain
// segment reply whatever the grant.
func TestNewShape(t *testing.T) {
	infos, err := idl.Parse(goldenIDL)
	if err != nil {
		t.Fatal(err)
	}
	tm := Timings{Enqueue: 1, Dequeue: 2, Complete: 3}
	for _, info := range infos {
		args := goldenArgs(t, info)
		req := &CallRequest{Name: info.Name, Args: args, Retain: true}
		digs, err := CallRequestDigests(info, req, goldenThreshold)
		if err != nil || len(digs) == 0 {
			t.Fatalf("%s: digests %v, %v: the table needs eligible arrays", info.Name, digs, err)
		}
		warm := make([]bool, len(digs))
		for i := range warm {
			warm[i] = true
		}
		call := func(sh Shape) string {
			bm, fb, err := EncodeRequest(info, MsgCall, req, 0, sh)
			return goldenLine(t, info.Name, info, xdr.SizeString(len(info.Name)), false, bm, fb, err)
		}
		reply := func(sh Shape) string {
			bm, fb, err := EncodeReply(info, tm, args, sh)
			return goldenLine(t, info.Name, info, 24, true, bm, fb, err)
		}
		inline, segments := call(Shape{}), call(Shape{threshold: goldenThreshold})
		if strings.Contains(inline, "seg@") || strings.Contains(inline, ":dig") || !strings.Contains(segments, "seg@") {
			t.Fatalf("%s: the reference placements are wrong\n%s%s", info.Name, inline, segments)
		}
		for _, c := range []struct {
			cache     bool
			threshold int
			want      string
		}{
			{false, 0, inline},
			{true, 0, inline},
			{false, goldenThreshold, segments},
		} {
			if got := call(NewShape(c.cache, c.threshold, digs, warm)); got != c.want {
				t.Errorf("%s: cache %t, threshold %d:\n got %s\nwant %s", info.Name, c.cache, c.threshold, got, c.want)
			}
		}
		granted := call(NewShape(true, goldenThreshold, digs, warm))
		if strings.Contains(granted, "seg@") || !strings.Contains(granted, ":dig") {
			t.Errorf("%s: the cache granted and every digest warm: %s", info.Name, granted)
		}
		for _, thr := range []int{0, goldenThreshold} {
			if got, want := reply(NewShape(true, thr, nil, nil)), reply(Shape{threshold: thr}); got != want {
				t.Errorf("%s: reply at threshold %d with the cache granted:\n got %s\nwant %s", info.Name, thr, got, want)
			}
		}
	}
}
