package protocol

import (
	"bytes"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// FuzzReadFrame checks the frame reader never panics and never returns
// both a payload and an error.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	WriteFrame(&ok, MsgCall, []byte("payload"))
	f.Add(ok.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), 1<<20)
		if err != nil {
			return
		}
		// A successfully-read frame must re-serialize to a prefix of
		// the input.
		var out bytes.Buffer
		if werr := WriteFrame(&out, typ, payload); werr != nil {
			t.Fatal(werr)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatal("re-encoded frame is not a prefix of the input")
		}
	})
}

// FuzzDecodePayloads checks every payload decoder is panic-free on
// arbitrary bytes, and that whatever a fixed-layout decoder accepts is
// exactly as long as its re-encoding: no byte is skipped or read twice.
// Lengths, not bytes, are compared, as XDR string padding is not
// checked.
func FuzzDecodePayloads(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 'a', 'b', 'c', 'd'})
	f.Add(bytes.Repeat([]byte{0x7f}, 40))
	// An array count word promising 2^27 elements and none of them, as
	// call arguments and as a call reply (see arrays_test.go).
	f.Add(hostileArgs(1))
	f.Add(hostileReply())
	rows := codecRows(f)
	for _, r := range rows {
		f.Add(r.enc(r.want))
	}
	infos := echoInfos(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range rows {
			v, err := r.dec(data)
			if err != nil {
				continue
			}
			if n := len(r.enc(v)); n != len(data) {
				t.Fatalf("%s accepted %d bytes that re-encode to %d", r.name, len(data), n)
			}
		}
		for _, info := range infos {
			DecodeCallArgsPooled(info, data, nil, nil, nil, 0)
			DecodeCallReply(info, []idl.Value{int64(len(data)), nil, nil}, data)
			into := []any{nil, nil, make([]float64, len(data))}
			DecodeCallReplyInto(info, []idl.Value{int64(len(data)), nil, nil}, into, data, nil)
		}
	})
}

// FuzzJournalRecord checks the write-ahead journal record codec:
// decoding arbitrary bytes never panics, and any record that decodes
// round-trips bit-identically — replay after a crash must never
// reinterpret what admission wrote. It also cross-checks the appending
// encoder the journal frames with against the XDR stream encoding the
// log format was defined by, behind an arbitrary prefix.
func FuzzJournalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add((&JournalRecord{Kind: JournalSubmit, JobID: 7, Key: 42, Client: "c1", Payload: []byte("req")}).Encode())
	f.Add((&JournalRecord{Kind: JournalComplete, JobID: 7, ErrCode: 3, ErrDetail: "boom"}).Encode())
	f.Add((&JournalRecord{Kind: JournalFetched, JobID: 9}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeJournalRecord(data)
		if err != nil {
			return
		}
		re := rec.Encode()
		rec2, err := DecodeJournalRecord(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if re2 := rec2.Encode(); !bytes.Equal(re, re2) {
			t.Fatal("journal record does not round-trip bit-identically")
		}
		var ref bytes.Buffer
		e := xdr.NewEncoder(&ref)
		e.PutUint32(uint32(rec.Kind))
		e.PutUint64(rec.JobID)
		e.PutUint64(rec.Key)
		e.PutString(rec.Client)
		e.PutUint32(rec.ErrCode)
		e.PutString(rec.ErrDetail)
		e.PutOpaque(rec.Payload)
		if !bytes.Equal(re, ref.Bytes()) {
			t.Fatalf("Encode (%d bytes) differs from the XDR stream encoding (%d bytes)", len(re), ref.Len())
		}
		prefix := data[:len(data)%7]
		if got := rec.AppendTo(bytes.Clone(prefix)); !bytes.Equal(got, append(bytes.Clone(prefix), re...)) {
			t.Fatal("AppendTo behind a prefix differs from prefix + Encode")
		}
	})
}

// FuzzFrameStream feeds random bytes as a stream of frames, to the
// lockstep reader and to the mux reader with its bulk reassembly; each
// must terminate (EOF or error) without panic, and a stream's end must
// leave no reassembly buffer behind.
func FuzzFrameStream(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgPing, nil)
	WriteFrame(&buf, MsgList, nil)
	f.Add(buf.Bytes())
	// Chunked streams as the mux writer cuts them: no two chunks of a
	// message the same size, a whole frame and a second stream's chunks
	// between them, and one stream given up half-sent.
	payload := bytes.Repeat([]byte("mixed chunk sizes "), 200)
	for _, limits := range [][]int{{1, 7, 512, 100, 2048, 3, 4096}, {4096}, {1}, {900, 30}} {
		buf.Reset()
		a, b := RawBulkMsg(MsgCall, payload), RawBulkMsg(MsgCallOK, payload[:1500])
		ca, cb := a.Cursor(), b.Cursor()
		for _, m := range []struct {
			msg *BulkMsg
			seq uint32
		}{{a, 1}, {b, 2}} {
			fb := m.msg.EncodeBegin()
			WriteMuxFrameBuf(&buf, MsgBulkBegin, m.seq, fb)
			fb.Release()
		}
		for i := 0; !ca.Done(); i++ {
			ca.WriteChunk(&buf, 1, limits[i%len(limits)])
			WriteMuxFrame(&buf, MsgPing, 3, nil)
			if i == 1 {
				WriteMuxFrame(&buf, MsgBulkAbort, 2, nil)
			} else if i < 1 {
				cb.WriteChunk(&buf, 2, limits[(i+1)%len(limits)])
			}
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 100; i++ {
			if _, _, err := ReadFrame(r, 1<<16); err != nil {
				break
			}
		}
		open := OpenBulkReassemblies()
		done, _ := readBulkStream(bytes.NewReader(data), 1<<16, false)
		for _, bd := range done {
			bd.FB.Release()
		}
		if n := OpenBulkReassemblies(); n != open {
			t.Fatalf("open reassemblies %d → %d across one stream", open, n)
		}
	})
}
