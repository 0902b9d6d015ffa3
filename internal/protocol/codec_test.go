package protocol

import (
	"reflect"
	"testing"

	"ninf/internal/idl"
)

// codecRow is one message's fixed layout: a value, the encoder that
// writes it, and the decoder that must give it back. An encoder returns
// nil for a value it cannot encode, which no decoder accepts.
type codecRow struct {
	name string
	want any
	enc  func(any) []byte
	dec  func([]byte) (any, error)
}

func row[T any](name string, want T, enc func(T) []byte, dec func([]byte) (T, error)) codecRow {
	return codecRow{name, want, func(v any) []byte { return enc(v.(T)) }, func(p []byte) (any, error) { return dec(p) }}
}

// byPtr adapts an Encode method to row's value encoder.
func byPtr[T any](enc func(*T) []byte) func(T) []byte {
	return func(v T) []byte { return enc(&v) }
}

// dataHandleReply pairs DecodeDataHandleReply's two results.
type dataHandleReply struct {
	D Digest
	B []byte
}

// callMsg is a MsgCall or MsgSubmit payload as its decoders return it.
type callMsg struct {
	Key uint64
	CallRequest
}

// callReply is a MsgCallOK payload as DecodeCallReply returns it.
type callReply struct {
	Timings
	Args []idl.Value
}

// callRow is the call or submit request m of dmmul; a zero Key makes
// it a MsgCall.
func callRow(name string, info *idl.Info, m callMsg) codecRow {
	t := MsgCall
	if m.Key != 0 {
		t = MsgSubmit
	}
	return row(name, m, func(m callMsg) []byte {
		_, fb, err := EncodeRequest(info, t, &m.CallRequest, m.Key, Shape{})
		if err != nil {
			return nil
		}
		return CopyOut(fb)
	}, func(p []byte) (callMsg, error) {
		var m callMsg
		var err error
		if t == MsgSubmit {
			if m.Key, p, err = DecodeSubmitKey(p); err != nil {
				return m, err
			}
		}
		if m.Name, p, err = DecodeCallName(p); err != nil {
			return m, err
		}
		m.Args, m.Deadline, err = DecodeCallArgsPooled(info, p, nil, &m.Retain, nil, 0)
		return m, err
	})
}

// codecRows is one row per message with a fixed layout, every field
// set. Within a row every number and string differs from every other
// and is non-zero, and neighbouring bools differ, so a write that is
// dropped, swapped with another or put at the wrong width changes what
// decodes.
func codecRows(tb testing.TB) []codecRow {
	info := dmmulInfo(tb)
	list := ListReply{Names: []string{"dgefa", "dgesl", "ep"}}
	stats := Stats{
		Hostname: "j90.etl", PEs: 1, Running: 2, Queued: 3, TotalCalls: 4,
		LoadAverage: 5.5, CPUUtil: 0.625, Draining: true,
		CacheHits: 6, CacheMisses: 7, CacheEvictions: 8, CachePinnedBytes: 9, CacheUsedBytes: 10, CacheBudget: 11,
		Epoch: 12,
	}
	record := GossipRecord{
		Origin: "client-7", Seq: 1, Kind: GossipStats, Name: "j90", Addr: "10.0.0.9:3000", Power: 2.5,
		Bytes: 5, Nanos: 6, Failed: false, Overloaded: true, RetryAfterMillis: 7, AtUnixNanos: 8, Stats: []byte("stats"),
	}
	digest := []GossipDigest{{Origin: "meta-1", Low: 1, Max: 2}, {Origin: "client-7", Low: 3, Max: 4}}
	a, b, c := []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, []float64{9, 10, 11, 12}
	args := func() []idl.Value { return []idl.Value{int64(2), a, b, make([]float64, 4)} }
	return []codecRow{
		row("InterfaceRequest", InterfaceRequest{Name: "dmmul"}, byPtr((*InterfaceRequest).Encode), DecodeInterfaceRequest),
		row("InterfaceReply", info, func(in *idl.Info) []byte {
			p, _ := EncodeInterfaceReply(in)
			return p
		}, DecodeInterfaceReply),
		row("ListReply", list, byPtr((*ListReply).Encode), DecodeListReply),
		row("SubmitReply", SubmitReply{JobID: 0x1122334455}, byPtr((*SubmitReply).Encode), DecodeSubmitReply),
		row("FetchRequest", FetchRequest{JobID: 0x66778899aa, Wait: true}, byPtr((*FetchRequest).Encode), DecodeFetchRequest),
		row("FetchRequestBuf", FetchRequest{JobID: 0x66778899aa, Wait: true}, func(m FetchRequest) []byte { return CopyOut(m.EncodeBuf()) }, DecodeFetchRequest),
		row("Stats", stats, byPtr((*Stats).Encode), DecodeStats),
		row("HelloRequest", HelloRequest{MaxVersion: 4}, byPtr((*HelloRequest).Encode), DecodeHelloRequest),
		row("HelloReply", HelloReply{Version: 3, Flags: HelloFlagArgCache, Epoch: 0x0102030405}, byPtr((*HelloReply).Encode), DecodeHelloReply),
		row("ScheduleRequest", ScheduleRequest{Routine: "linpack", InBytes: 1, OutBytes: 2, Ops: 3, Exclude: []string{"a.etl", "bb.etl"}, Affinity: "ccc.etl"},
			byPtr((*ScheduleRequest).Encode), DecodeScheduleRequest),
		row("ScheduleReply", ScheduleReply{Name: "j90", Addr: "10.0.0.9:3000"}, byPtr((*ScheduleReply).Encode), DecodeScheduleReply),
		row("ObserveRequest", ObserveRequest{Name: "j90", Bytes: 1, Nanos: 2, Failed: true, Overloaded: false, RetryAfterMillis: 3, Origin: "client-7", Seq: 4},
			byPtr((*ObserveRequest).Encode), DecodeObserveRequest),
		row("GossipRequest", GossipRequest{From: "meta-2", Digest: digest, Records: []GossipRecord{record}}, byPtr((*GossipRequest).Encode), DecodeGossipRequest),
		row("GossipReply", GossipReply{Digest: digest[1:], Records: []GossipRecord{record, record}}, byPtr((*GossipReply).Encode), DecodeGossipReply),
		row("CallbackRequest", CallbackRequest{Name: "progress", Data: []byte{1, 2, 3, 4, 5}}, byPtr((*CallbackRequest).Encode), DecodeCallbackRequest),
		row("CallbackReply", CallbackReply{Data: []byte{6, 7, 8}}, byPtr((*CallbackReply).Encode), DecodeCallbackReply),
		row("JournalRecord", JournalRecord{Kind: JournalComplete, JobID: 1, Key: 2, Client: "10.0.0.7", ErrCode: CodeExecFailed, ErrDetail: "boom", Payload: []byte{9, 8, 7}},
			func(r JournalRecord) []byte { return r.AppendTo(nil) }, DecodeJournalRecord),
		row("ErrorReply", ErrorReply{Code: CodeOverloaded, Detail: "queue full", RetryAfterMillis: 250},
			func(m ErrorReply) []byte { return EncodeErrorReply(m.Code, m.Detail, m.RetryAfterMillis) }, DecodeErrorReply),
		row("DigestQuery", []Digest{{Hi: 1, Lo: 2}, {Hi: 3, Lo: 4}}, func(d []Digest) []byte { return CopyOut(EncodeDigestQueryBuf(d)) }, DecodeDigestQuery),
		row("DigestStatus", []bool{true, false, true}, func(w []bool) []byte { return CopyOut(EncodeDigestStatusBuf(w)) }, DecodeDigestStatus),
		row("DataHandleRequest", Digest{Hi: 5, Lo: 6}, func(d Digest) []byte { return CopyOut(EncodeDataHandleRequestBuf(d)) }, DecodeDataHandleRequest),
		row("DataHandleReply", dataHandleReply{D: Digest{Hi: 5, Lo: 6}, B: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			func(h dataHandleReply) []byte { return CopyOut(EncodeDataHandleReplyBuf(h.D, h.B)) },
			func(p []byte) (dataHandleReply, error) {
				d, b, err := DecodeDataHandleReply(p)
				return dataHandleReply{d, b}, err
			}),
		callRow("Call", info, callMsg{CallRequest: CallRequest{Name: "dmmul", Args: args()}}),
		callRow("CallDeadlineRetain", info, callMsg{CallRequest: CallRequest{Name: "dmmul", Args: args(), Deadline: 13, Retain: true}}),
		callRow("Submit", info, callMsg{Key: 14, CallRequest: CallRequest{Name: "dmmul", Args: args()}}),
		callRow("SubmitDeadlineRetain", info, callMsg{Key: 15, CallRequest: CallRequest{Name: "dmmul", Args: args(), Deadline: 16, Retain: true}}),
		row("CallReply", callReply{Timings{17, 18, 19}, []idl.Value{nil, nil, nil, c}}, func(m callReply) []byte {
			// The reply carries only C; n sizes it.
			_, fb, err := EncodeReply(info, m.Timings, []idl.Value{int64(2), nil, nil, m.Args[3]}, Shape{})
			if err != nil {
				return nil
			}
			return CopyOut(fb)
		}, func(p []byte) (callReply, error) {
			tm, out, err := DecodeCallReply(info, []idl.Value{int64(2), nil, nil, nil}, p)
			return callReply{tm, out}, err
		}),
		row("TraceOK", []RoutineTrace{
			{Name: "dgefa", Count: 20, Failures: 21, MeanCompute: 22, MeanWait: 23, MeanBytes: 24},
			{Name: "ep", Count: 25, Failures: 26, MeanCompute: 27, MeanWait: 28, MeanBytes: 29},
		}, EncodeTraces, DecodeTraces),
	}
}

// TestCodecRoundTrip requires every message's decoder to give back,
// field for field, the value its encoder wrote.
func TestCodecRoundTrip(t *testing.T) {
	for _, r := range codecRows(t) {
		got, err := r.dec(r.enc(r.want))
		if err != nil {
			t.Errorf("%s: decode: %v", r.name, err)
			continue
		}
		if !reflect.DeepEqual(got, r.want) {
			t.Errorf("%s: round trip changed the value:\n got %+v\nwant %+v", r.name, got, r.want)
		}
	}
}

// TestPayloadLayoutsStrict: a payload has exactly one layout, every
// field present. Cut short anywhere — a Stats payload missing its last
// 24 bytes once decoded with the cache counters read as the epoch — or
// given one byte too many, it is refused.
func TestPayloadLayoutsStrict(t *testing.T) {
	for _, r := range codecRows(t) {
		t.Run(r.name, func(t *testing.T) {
			p := r.enc(r.want)
			if got, err := r.dec(p); err != nil || !reflect.DeepEqual(got, r.want) {
				t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, got, r.want)
			}
			for n := range len(p) {
				if got, err := r.dec(p[:n:n]); err == nil {
					t.Errorf("%d of %d bytes (cut by %d) decoded as %+v", n, len(p), len(p)-n, got)
				}
			}
			long := append(p[:len(p):len(p)], 0)
			if got, err := r.dec(long); err == nil {
				t.Errorf("%d bytes with one appended decoded as %+v", len(long), got)
			}
		})
	}
}
