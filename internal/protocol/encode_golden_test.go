package protocol

// Golden captures of the argument encoder. A fixed table of interfaces
// is encoded as call request, keyed submit and reply, with the deadline
// and retain fields set and unset, under every placement an array can be
// given — all inline; segments at a 4 KiB threshold; segments or digest
// markers at the same threshold with none, some and all of the eligible
// arrays warm — and the result is compared with testdata/encode.golden.
// The file was generated from the five per-placement encoders before
// they became one traversal; the request rows were regenerated when the
// deadline and retain words became fixed fields, the reply rows never.
// It is what "the encoder's bytes did not change" means. Regenerate with
//
//	go test ./internal/protocol -run EncodeGolden -update
//
// only when a change to the encoded bytes is intended.
//
// Per row: whether the message is one buffer or a chunked BulkMsg, its
// head length, total and span lengths, where each shipped argument was
// placed (inline, seg@<patched offset>, dig) as read back from the head,
// and the head bytes in hex — whole when short, else both ends plus a
// SHA-256 of all of it, since an inline array is kilobytes of noise and
// the deadline and retain words (trailer=, the bytes after the last
// argument) sit behind it. Segment bytes are the caller's own slices
// in host order and are not recorded.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encode.golden from this run")

const goldenIDL = `
Define echo(mode_in int n, mode_in double data[n], mode_out double copy[n])
    Calls "go" echo(n, data, copy);
Define dmmul(mode_in int n, mode_in double A[n][n], mode_in double B[n][n], mode_out double C[n][n])
    Calls "go" dmmul(n, A, B, C);
Define dgefa(mode_in int n, mode_inout double a[n][n], mode_out int ipvt[n])
    Calls "go" dgefa(n, a, ipvt);
Define mix(mode_in string label, mode_in int n, mode_in int m,
           mode_in float f[n], mode_in int q[n], mode_in double w[m],
           mode_out double g[n])
    Calls "go" mix(label, n, m, f, q, w, g);
`

const goldenThreshold = 4096

// goldenShape is one row of the placement axis.
type goldenShape struct {
	name      string
	threshold int
	digest    bool             // cache granted: digests computed, warm consulted
	warm      func(i int) bool // by position in the digest list
}

var goldenShapes = []goldenShape{
	{name: "mono"},
	{name: "thr4096", threshold: goldenThreshold},
	{name: "dig-none", threshold: goldenThreshold, digest: true, warm: func(int) bool { return false }},
	{name: "dig-some", threshold: goldenThreshold, digest: true, warm: func(i int) bool { return i%2 == 0 }},
	{name: "dig-all", threshold: goldenThreshold, digest: true, warm: func(int) bool { return true }},
}

// goldenArgs fills every array of info — out-only ones included, as the
// server's vector has them when it replies — with values that depend on
// the parameter and the index, each eligible array at least 4 KiB.
func goldenArgs(t *testing.T, info *idl.Info) []idl.Value {
	t.Helper()
	n := map[string]int64{"echo": 600, "dmmul": 24, "dgefa": 24, "mix": 1100}[info.Name]
	args := make([]idl.Value, len(info.Params))
	for i := range info.Params {
		switch p := &info.Params[i]; {
		case p.Type == idl.String:
			args[i] = "golden"
		case p.IsScalar() && p.Name == "m":
			args[i] = int64(3)
		case p.IsScalar():
			args[i] = n
		}
	}
	counts, err := info.DimSizes(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range info.Params {
		p := &info.Params[i]
		if p.IsScalar() {
			continue
		}
		switch p.Type {
		case idl.Double:
			v := make([]float64, counts[i])
			for j := range v {
				v[j] = float64(i) + float64(j)/8
			}
			args[i] = v
		case idl.Float:
			v := make([]float32, counts[i])
			for j := range v {
				v[j] = float32(i) - float32(j)/4
			}
			args[i] = v
		case idl.Int:
			v := make([]int64, counts[i])
			for j := range v {
				v[j] = int64(i*100000 - j)
			}
			args[i] = v
		}
	}
	return args
}

// shape builds the Shape a peer that negotiated sh encodes req under.
func (sh goldenShape) shape(info *idl.Info, req *CallRequest) (Shape, error) {
	if !sh.digest {
		return NewShape(false, sh.threshold, nil, nil), nil
	}
	digs, err := CallRequestDigests(info, req, sh.threshold)
	warm := make([]bool, len(digs))
	for i := range warm {
		warm[i] = sh.warm(i)
	}
	return NewShape(true, sh.threshold, digs, warm), err
}

// placements reads a head back with nothing but the IDL and reports
// where each shipped argument sits; lead is the envelope in front of
// the vector (timings, or key and name) that it skips.
func placements(info *idl.Info, head []byte, lead int, reply bool) (string, error) {
	var d xdr.Decoder
	d.ResetBytes(head[lead:])
	var out []string
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(reply) {
			continue
		}
		where := "inline"
		switch {
		case p.IsScalar() && p.Type == idl.String:
			_ = d.String()
		case p.IsScalar():
			d.View(argSize(p, 1, nil))
		default:
			switch w := d.Uint32(); {
			case w&bulkArgFlag == 0:
				d.View(int(w) * bulkElemSize(p.Type))
			case w&bulkDigestFlag != 0:
				d.View(16)
				where = "dig"
			default:
				where = fmt.Sprintf("seg@%d", d.Uint32())
			}
		}
		out = append(out, p.Name+":"+where)
	}
	if err := d.Err(); err != nil {
		return "", err
	}
	return fmt.Sprintf("[%s] trailer=%d", strings.Join(out, " "), len(head)-lead-int(d.Len())), nil
}

func goldenHex(p []byte) string {
	if len(p) <= 160 {
		return hex.EncodeToString(p)
	}
	sum := sha256.Sum256(p)
	return fmt.Sprintf("%s..%s sha256=%x", hex.EncodeToString(p[:64]), hex.EncodeToString(p[len(p)-32:]), sum)
}

// goldenLine renders one encoded message and releases it.
func goldenLine(t *testing.T, row string, info *idl.Info, lead int, reply bool, bm *BulkMsg, fb *Buffer, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", row, err)
	}
	if (bm == nil) == (fb == nil) {
		t.Fatalf("%s: want exactly one of BulkMsg and Buffer, got %v and %v", row, bm, fb)
	}
	var b strings.Builder
	var head []byte
	if bm != nil {
		defer bm.Release()
		head = bm.Spans[0]
		sizes := make([]int, len(bm.Spans))
		for i, s := range bm.Spans {
			sizes[i] = len(s)
		}
		fmt.Fprintf(&b, "%s: bulk type=%v headlen=%d total=%d spans=%v", row, bm.Type, bm.HeadLen(), bm.Total(), sizes)
	} else {
		defer fb.Release()
		head = fb.Payload()
		fmt.Fprintf(&b, "%s: buf len=%d", row, len(head))
	}
	where, err := placements(info, head, lead, reply)
	if err != nil {
		t.Fatalf("%s: reading the head back: %v", row, err)
	}
	fmt.Fprintf(&b, " args=%s head=%s\n", where, goldenHex(head))
	return b.String()
}

func TestEncodeGolden(t *testing.T) {
	infos, err := idl.Parse(goldenIDL)
	if err != nil {
		t.Fatal(err)
	}
	const key = 0x0102030405060708
	tm := Timings{Enqueue: 1111, Dequeue: 2222, Complete: 3333}
	var got strings.Builder
	for _, info := range infos {
		args := goldenArgs(t, info)
		for _, keyed := range []bool{false, true} {
			kind, mt, lead := "call", MsgCall, xdr.SizeString(len(info.Name))
			if keyed {
				kind, mt, lead = "submit", MsgSubmit, lead+8
			}
			for _, deadline := range []int64{0, 1234567890123} {
				for _, retain := range []bool{false, true} {
					for _, sh := range goldenShapes {
						row := fmt.Sprintf("%s/%s/deadline=%t/retain=%t/%s", info.Name, kind, deadline != 0, retain, sh.name)
						req := &CallRequest{Name: info.Name, Args: args, Deadline: deadline, Retain: retain}
						shape, err := sh.shape(info, req)
						if err != nil {
							t.Fatalf("%s: %v", row, err)
						}
						bm, fb, err := EncodeRequest(info, mt, req, key, shape)
						got.WriteString(goldenLine(t, row, info, lead, false, bm, fb, err))
					}
				}
			}
		}
		for _, sh := range goldenShapes[:2] {
			bm, fb, err := EncodeReply(info, tm, args, NewShape(false, sh.threshold, nil, nil))
			got.WriteString(goldenLine(t, info.Name+"/reply/"+sh.name, info, 24, true, bm, fb, err))
		}
	}

	path := filepath.Join("testdata", "encode.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
