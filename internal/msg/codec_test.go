package msg

import (
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(8)
	w.PutU32(0xdeadbeef)
	w.PutU64(0x0123456789abcdef)
	w.PutI64(-42)
	w.PutBool(true)
	w.PutBool(false)

	r := NewReader(w.Words())
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("u32 = %x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("u64 = %x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("i64 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools corrupted")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestRoundTripVector(t *testing.T) {
	w := NewWriter(8)
	w.PutU32s([]uint32{1, 2, 3})
	w.PutU32s(nil)
	w.PutU32(7)
	r := NewReader(w.Words())
	v := r.U32s()
	if len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Errorf("vector = %v", v)
	}
	if e := r.U32s(); len(e) != 0 {
		t.Errorf("empty vector = %v", e)
	}
	if r.U32() != 7 {
		t.Error("trailing word lost")
	}
}

func TestShortPayloadSticky(t *testing.T) {
	r := NewReader([]uint32{5})
	_ = r.U64() // needs 2 words
	if r.Err() != ErrShortPayload {
		t.Fatalf("err = %v", r.Err())
	}
	if r.U32() != 0 {
		t.Error("read after error should return zero")
	}
}

func TestVectorLengthOverrun(t *testing.T) {
	r := NewReader([]uint32{10, 1, 2}) // claims 10 elements, has 2
	if v := r.U32s(); v != nil {
		t.Errorf("overrun vector = %v", v)
	}
	if r.Err() == nil {
		t.Error("overrun not detected")
	}
}

type pair struct {
	A uint64
	B uint32
}

func (p *pair) MarshalWords(w *Writer) {
	w.PutU64(p.A)
	w.PutU32(p.B)
}

func (p *pair) UnmarshalWords(r *Reader) error {
	p.A = r.U64()
	p.B = r.U32()
	return r.Err()
}

// encode marshals m into a fresh word slice.
func encode(m Marshaler) []uint32 {
	w := NewWriter(8)
	m.MarshalWords(w)
	return w.Words()
}

func TestEncodeDecode(t *testing.T) {
	in := &pair{A: 1 << 40, B: 9}
	words := encode(in)
	if len(words) != 3 {
		t.Fatalf("encoded %d words, want 3", len(words))
	}
	var out pair
	var r Reader
	if err := r.Decode(words, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("round trip: %+v != %+v", out, *in)
	}
}

func TestDecodeRejectsTrailingWords(t *testing.T) {
	in := &pair{A: 1, B: 2}
	words := append(encode(in), 99)
	var out pair
	var r Reader
	if err := r.Decode(words, &out); err == nil {
		t.Fatal("trailing words not rejected")
	}
}

func TestPropertyU64RoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint64) bool {
		w := NewWriter(2)
		w.PutU64(v)
		return NewReader(w.Words()).U64() == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVectorRoundTrip(t *testing.T) {
	if err := quick.Check(func(vs []uint32) bool {
		w := NewWriter(len(vs) + 1)
		w.PutU32s(vs)
		got := NewReader(w.Words()).U32s()
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyI64RoundTrip(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		w := NewWriter(2)
		w.PutI64(v)
		return NewReader(w.Words()).I64() == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderResetRewindsAndClearsError(t *testing.T) {
	r := NewReader([]uint32{5})
	_ = r.U64() // runs short: sets the sticky error
	if r.Err() != ErrShortPayload {
		t.Fatalf("err = %v, want ErrShortPayload", r.Err())
	}
	r.Reset([]uint32{7, 8})
	if r.Err() != nil {
		t.Fatalf("Reset kept the sticky error %v", r.Err())
	}
	if r.Remaining() != 2 {
		t.Fatalf("remaining = %d after Reset, want 2", r.Remaining())
	}
	if a, b := r.U32(), r.U32(); a != 7 || b != 8 {
		t.Errorf("read %d,%d after Reset, want 7,8", a, b)
	}
	r.Reset(nil)
	if r.Remaining() != 0 || r.U32() != 0 || r.Err() != ErrShortPayload {
		t.Error("Reset(nil) should leave an empty reader")
	}
}

func TestReaderDecodeReusesReader(t *testing.T) {
	var r Reader
	var u u64Rec
	if err := r.Decode([]uint32{0, 9}, &u); err != nil || u.v != 9 {
		t.Fatalf("decode = %v, %d", err, u.v)
	}
	if err := r.Decode([]uint32{0, 1, 2}, &u); err == nil {
		t.Error("trailing word accepted")
	}
	// A failed decode leaves no state behind for the next one.
	if err := r.Decode([]uint32{1, 0}, &u); err != nil || u.v != 1<<32 {
		t.Errorf("decode after failure = %v, %d", err, u.v)
	}
	payload := []uint32{0, 3}
	if n := testing.AllocsPerRun(100, func() { _ = r.Decode(payload, &u) }); n != 0 {
		t.Errorf("Reader.Decode allocated %.0f times per call, want 0", n)
	}
}

func TestWriterResetKeepsBuffer(t *testing.T) {
	w := NewWriter(2)
	w.PutU64(1)
	w.PutU32(2)
	grown := cap(w.Words())
	w.Reset()
	if len(w.words) != 0 {
		t.Fatalf("len = %d after Reset, want 0", len(w.words))
	}
	w.PutU32(9)
	if got := w.Words(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("words after Reset = %v, want [9]", got)
	}
	if cap(w.Words()) != grown {
		t.Errorf("Reset dropped the buffer: cap %d, want %d", cap(w.Words()), grown)
	}
	if n := testing.AllocsPerRun(100, func() { w.Reset(); w.PutU64(4); w.PutU32(5) }); n != 0 {
		t.Errorf("writing after Reset allocated %.0f times, want 0", n)
	}
}

type u64Rec struct{ v uint64 }

func (u *u64Rec) UnmarshalWords(r *Reader) error { u.v = r.U64(); return r.Err() }
