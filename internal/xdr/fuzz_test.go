package xdr

import (
	"bytes"
	"testing"
)

// FuzzDecoder drives every decoding method over arbitrary input; the
// decoder must never panic and must latch its first error.
func FuzzDecoder(f *testing.F) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.PutString("seed")
	e.PutFloat64s([]float64{1, 2, 3})
	e.PutInt64(-9)
	f.Add(buf.Bytes(), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 32), uint8(2))
	// A count word promising 2^27 doubles and not one of them: it used
	// to cost a 1 GiB allocation before the short read was noticed.
	f.Add([]byte{0x08, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		read := func(d *Decoder) {
			d.SetMaxBytes(1 << 16)
			switch which % 8 {
			case 0:
				_ = d.String()
			case 1:
				d.Float64s()
			case 2:
				d.Int64s()
			case 3:
				d.Opaque()
			case 4:
				d.Bool()
			case 5:
				d.Float32s()
			case 6:
				d.Int32s()
			case 7:
				d.FixedOpaque(int(uint(len(data)) % 64))
			}
			first := d.Err()
			// Error latch: further reads keep the same error.
			_ = d.Uint32()
			if first != nil && d.Err() != first {
				t.Fatal("error latch broken")
			}
		}
		// The same bytes as a stream and as a byte slice: both sources
		// accept or both refuse, having consumed the same amount.
		ds := NewDecoder(bytes.NewReader(data))
		var dm Decoder
		dm.ResetBytes(data)
		read(ds)
		read(&dm)
		if (ds.Err() == nil) != (dm.Err() == nil) || ds.Len() != dm.Len() {
			t.Fatalf("stream: err %v after %d bytes; memory: err %v after %d bytes", ds.Err(), ds.Len(), dm.Err(), dm.Len())
		}
	})
}

// FuzzSwab holds Swab to the reference loop over arbitrary bytes,
// element size, and source and destination misalignment; the seeds are
// the lengths and the two offsets TestSwabKernelVsReference leans on.
func FuzzSwab(f *testing.F) {
	for _, n := range swabLengths {
		for _, size := range []uint8{4, 8} {
			f.Add(swabPattern(n), size, uint8(4), uint8(0))
			f.Add(swabPattern(n), size, uint8(0), uint8(4))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, size, srcOff, dstOff uint8) {
		sz := 8
		if size%8 == 4 {
			sz = 4
		}
		data = data[:len(data)-len(data)%sz]
		newSwabRig(t, data, sz).check(t, int(srcOff%32), int(dstOff%32))
	})
}
