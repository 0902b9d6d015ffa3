package protocol

import (
	"reflect"
	"testing"
)

// codecRow is one message's round trip: the value, its encoding, and
// the decoder that must give the value back.
type codecRow struct {
	name string
	want any
	enc  []byte
	dec  func([]byte) (any, error)
}

func row[T any](name string, want T, enc []byte, dec func([]byte) (T, error)) codecRow {
	return codecRow{name, want, enc, func(p []byte) (any, error) { return dec(p) }}
}

// dataHandleReply pairs DecodeDataHandleReply's two results.
type dataHandleReply struct {
	D Digest
	B []byte
}

// TestCodecRoundTrip encodes one value of every message with an
// exported encoder and decoder and requires the decoder to give it back
// field for field. Within a row every number and string differs from
// every other and is non-zero, and neighbouring bools differ, so a
// write that is dropped, swapped with another or put at the wrong width
// changes what decodes. The call request and reply, whose layout the
// IDL drives, are pinned by TestEncodeGolden instead.
func TestCodecRoundTrip(t *testing.T) {
	iface := InterfaceRequest{Name: "dmmul"}
	info := dmmulInfo(t)
	ifaceReply, err := EncodeInterfaceReply(info)
	if err != nil {
		t.Fatal(err)
	}
	list := ListReply{Names: []string{"dgefa", "dgesl", "ep"}}
	submit := SubmitReply{JobID: 0x1122334455}
	fetch := FetchRequest{JobID: 0x66778899aa, Wait: true}
	stats := Stats{
		Hostname: "j90.etl", PEs: 1, Running: 2, Queued: 3, TotalCalls: 4,
		LoadAverage: 5.5, CPUUtil: 0.625, Draining: true,
		CacheHits: 6, CacheMisses: 7, CacheEvictions: 8, CachePinnedBytes: 9, CacheUsedBytes: 10, CacheBudget: 11,
		Epoch: 12,
	}
	hello := HelloRequest{MaxVersion: 4}
	helloReply := HelloReply{Version: 3, Flags: HelloFlagArgCache, Epoch: 0x0102030405}
	sched := ScheduleRequest{Routine: "linpack", InBytes: 1, OutBytes: 2, Ops: 3, Exclude: []string{"a.etl", "bb.etl"}, Affinity: "ccc.etl"}
	schedReply := ScheduleReply{Name: "j90", Addr: "10.0.0.9:3000"}
	observe := ObserveRequest{Name: "j90", Bytes: 1, Nanos: 2, Failed: true, Overloaded: false, RetryAfterMillis: 3, Origin: "client-7", Seq: 4}
	record := GossipRecord{
		Origin: "client-7", Seq: 1, Kind: GossipStats, Name: "j90", Addr: "10.0.0.9:3000", Power: 2.5,
		Bytes: 5, Nanos: 6, Failed: false, Overloaded: true, RetryAfterMillis: 7, AtUnixNanos: 8, Stats: []byte("stats"),
	}
	digest := []GossipDigest{{Origin: "meta-1", Low: 1, Max: 2}, {Origin: "client-7", Low: 3, Max: 4}}
	gossip := GossipRequest{From: "meta-2", Digest: digest, Records: []GossipRecord{record}}
	gossipReply := GossipReply{Digest: digest[1:], Records: []GossipRecord{record, record}}
	callback := CallbackRequest{Name: "progress", Data: []byte{1, 2, 3, 4, 5}}
	callbackReply := CallbackReply{Data: []byte{6, 7, 8}}
	journal := JournalRecord{Kind: JournalComplete, JobID: 1, Key: 2, Client: "10.0.0.7", ErrCode: CodeExecFailed, ErrDetail: "boom", Payload: []byte{9, 8, 7}}
	errReply := ErrorReply{Code: CodeOverloaded, Detail: "queue full", RetryAfterMillis: 250}
	digs := []Digest{{Hi: 1, Lo: 2}, {Hi: 3, Lo: 4}}
	warm := []bool{true, false, true}
	handle := dataHandleReply{D: Digest{Hi: 5, Lo: 6}, B: []byte{1, 2, 3, 4, 5, 6, 7, 8}}

	for _, r := range []codecRow{
		row("InterfaceRequest", iface, iface.Encode(), DecodeInterfaceRequest),
		row("InterfaceReply", info, ifaceReply, DecodeInterfaceReply),
		row("ListReply", list, list.Encode(), DecodeListReply),
		row("SubmitReply", submit, submit.Encode(), DecodeSubmitReply),
		row("FetchRequest", fetch, fetch.Encode(), DecodeFetchRequest),
		row("FetchRequest/EncodeBuf", fetch, CopyOut(fetch.EncodeBuf()), DecodeFetchRequest),
		row("Stats", stats, stats.Encode(), DecodeStats),
		row("HelloRequest", hello, hello.Encode(), DecodeHelloRequest),
		row("HelloReply", helloReply, helloReply.Encode(), DecodeHelloReply),
		row("ScheduleRequest", sched, sched.Encode(), DecodeScheduleRequest),
		row("ScheduleReply", schedReply, schedReply.Encode(), DecodeScheduleReply),
		row("ObserveRequest", observe, observe.Encode(), DecodeObserveRequest),
		row("GossipRequest", gossip, gossip.Encode(), DecodeGossipRequest),
		row("GossipReply", gossipReply, gossipReply.Encode(), DecodeGossipReply),
		row("CallbackRequest", callback, callback.Encode(), DecodeCallbackRequest),
		row("CallbackReply", callbackReply, callbackReply.Encode(), DecodeCallbackReply),
		row("JournalRecord", journal, journal.AppendTo(nil), DecodeJournalRecord),
		row("ErrorReply", errReply, EncodeErrorReplyHint(errReply.Code, errReply.Detail, errReply.RetryAfterMillis), DecodeErrorReply),
		row("DigestQuery", digs, CopyOut(EncodeDigestQueryBuf(digs)), DecodeDigestQuery),
		row("DigestStatus", warm, CopyOut(EncodeDigestStatusBuf(warm)), DecodeDigestStatus),
		row("DataHandleRequest", handle.D, CopyOut(EncodeDataHandleRequestBuf(handle.D)), DecodeDataHandleRequest),
		row("DataHandleReply", handle, CopyOut(EncodeDataHandleReplyBuf(handle.D, handle.B)), func(p []byte) (dataHandleReply, error) {
			d, b, err := DecodeDataHandleReply(p)
			return dataHandleReply{d, b}, err
		}),
	} {
		got, err := r.dec(r.enc)
		if err != nil {
			t.Errorf("%s: decode: %v", r.name, err)
			continue
		}
		if !reflect.DeepEqual(got, r.want) {
			t.Errorf("%s: round trip changed the value:\n got %+v\nwant %+v", r.name, got, r.want)
		}
	}
}
