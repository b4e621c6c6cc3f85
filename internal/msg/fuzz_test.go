package msg

import "testing"

// FuzzReaderNeverPanics feeds arbitrary word streams through every
// decoding operation: a corrupt or truncated payload must surface as a
// sticky error, never a panic or out-of-bounds access.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 9, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
				uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
		}
		r := newReader(words)
		// Exercise every accessor in a fixed pattern; none may panic.
		_ = r.U32()
		_ = r.U64()
		_ = r.Bool()
		_ = r.U32s()
		_ = r.I64()
		_ = r.U32s()
		if r.Err() == nil && r.Remaining() < 0 {
			t.Fatal("negative remaining without error")
		}
	})
}

// FuzzWriterReaderRoundTrip checks that anything written comes back
// identically, whatever the interleaving of types.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint64(2), true, []byte{3, 4, 5})
	f.Add(uint32(0), ^uint64(0), false, []byte{})
	f.Fuzz(func(t *testing.T, a uint32, b uint64, c bool, vecRaw []byte) {
		vec := make([]uint32, len(vecRaw))
		for i, v := range vecRaw {
			vec[i] = uint32(v) * 0x01010101
		}
		w := new(Writer)
		w.PutU32(a)
		w.PutU64(b)
		w.PutBool(c)
		w.PutU32s(vec)
		r := newReader(w.Words())
		if r.U32() != a || r.U64() != b || r.Bool() != c {
			t.Fatal("scalar round trip failed")
		}
		got := r.U32s()
		if len(got) != len(vec) {
			t.Fatalf("vector length %d != %d", len(got), len(vec))
		}
		for i := range vec {
			if got[i] != vec[i] {
				t.Fatalf("vector element %d mismatch", i)
			}
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
		}
	})
}
