package protocol

import (
	"strings"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// BulkShape and DigestShape name a non-zero placement directly, whatever
// a peer negotiated: the encoder's own tests and goldens fix the shape
// they encode under.
func BulkShape(threshold int) Shape { return Shape{threshold: threshold} }

func DigestShape(threshold int, digs []Digest, warm []bool) Shape {
	return Shape{threshold: threshold, digest: true, digs: digs, warm: warm}
}

// TestNewShapeLevels holds the shape constructor to the level it is
// given, on the golden interfaces with every eligible array's digest
// offered and warm. Below level 3 every array is inline; at level 3 none
// is a digest marker; at level 4 the bytes are level 3's unless the
// cache is granted, the one case that places markers. A reply, built
// without digests, is level 3's whatever the grant.
func TestNewShapeLevels(t *testing.T) {
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
		inline, segments := call(Shape{}), call(BulkShape(goldenThreshold))
		if strings.Contains(inline, "seg@") || strings.Contains(inline, ":dig") || !strings.Contains(segments, "seg@") {
			t.Fatalf("%s: the reference placements are wrong\n%s%s", info.Name, inline, segments)
		}
		for _, c := range []struct {
			level int
			cache bool
			want  string
		}{
			{1, true, inline},
			{MuxVersion, false, inline},
			{MuxVersion, true, inline},
			{MuxVersionBulk, false, segments},
			{MuxVersionBulk, true, segments},
			{MuxVersionCache, false, segments},
		} {
			if got := call(NewShape(c.level, c.cache, goldenThreshold, digs, warm)); got != c.want {
				t.Errorf("%s: level %d, cache %t:\n got %s\nwant %s", info.Name, c.level, c.cache, got, c.want)
			}
		}
		granted := call(NewShape(MuxVersionCache, true, goldenThreshold, digs, warm))
		if strings.Contains(granted, "seg@") || !strings.Contains(granted, ":dig") {
			t.Errorf("%s: level 4 with the cache granted and every digest warm: %s", info.Name, granted)
		}
		if got, want := reply(NewShape(MuxVersion, true, goldenThreshold, nil, nil)), reply(Shape{}); got != want {
			t.Errorf("%s: level-2 reply:\n got %s\nwant %s", info.Name, got, want)
		}
		if got, want := reply(NewShape(MuxVersionCache, true, goldenThreshold, nil, nil)), reply(BulkShape(goldenThreshold)); got != want {
			t.Errorf("%s: level-4 reply:\n got %s\nwant %s", info.Name, got, want)
		}
	}
}
