package mux

import (
	"bytes"
	"testing"

	"ninf/internal/protocol"
)

// discardConn is a connection that accepts every write.
type discardConn struct{}

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestLoopAllocsFlat drives each loop of the engine over n and 8n
// frames and holds the allocations at 8n to those at n plus 3: whatever
// a loop body allocates shows up 7n times over. The writer is handed
// one frame at a time, so each frame is one turn of its loop.
func TestLoopAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the counts assume they are kept")
	}
	rows := []struct {
		name string
		at   func(n int) func()
	}{
		{"Writer.run", func(n int) func() {
			settled := make(chan struct{}, 1)
			w := NewWriter(discardConn{}, false, func(error) {}, func() { settled <- struct{}{} })
			t.Cleanup(w.Close)
			return func() {
				for i := range n {
					if err := w.Send(Item{Type: protocol.MsgCall, Seq: uint32(i), Frame: protocol.AcquireBuffer(8)}, nil); err != nil {
						t.Fatal(err)
					}
					<-settled
				}
			}
		}},
		{"ReadFrames", func(n int) func() {
			var stream bytes.Buffer
			for i := range n {
				if err := protocol.WriteMuxFrame(&stream, protocol.MsgCallOK, uint32(i), []byte("8 bytes.")); err != nil {
					t.Fatal(err)
				}
			}
			r := bytes.NewReader(stream.Bytes())
			frames := 0
			deliver := func(_ uint32, m Message) {
				frames++
				m.FB.Release()
			}
			read := func() {
				r.Reset(stream.Bytes())
				ReadFrames(r, protocol.DefaultMaxPayload, nil, deliver)
			}
			if read(); frames != n {
				t.Fatalf("ReadFrames delivered %d of %d frames", frames, n)
			}
			return read
		}},
	}
	const n = 16
	for _, r := range rows {
		small := testing.AllocsPerRun(20, r.at(n))
		large := testing.AllocsPerRun(20, r.at(8*n))
		t.Logf("%s: %.1f allocations at %d frames, %.1f at %d", r.name, small, n, large, 8*n)
		if large > small+3 {
			t.Errorf("%s: %.1f allocations at %d frames, %.1f at %d: the loop allocates per frame", r.name, small, n, large, 8*n)
		}
	}
}
