// Package msg provides the word-oriented wire encoding used by the
// simulated runtime. The paper's machine moves 32-bit words; bandwidth is
// reported in words, and marshaling costs scale with words. Encoding
// argument records through this codec (rather than passing Go values
// around) means payload sizes — and therefore the bandwidth numbers in
// Figures 3 and Tables 2/4 — derive from real encodings.
package msg

import (
	"errors"
	"fmt"
)

// Writer builds a payload of 32-bit words.
type Writer struct {
	words []uint32
}

// NewWriter returns a Writer with capacity for n words.
func NewWriter(n int) *Writer { return &Writer{words: make([]uint32, 0, n)} }

// PutU32 appends one word.
func (w *Writer) PutU32(v uint32) { w.words = append(w.words, v) }

// PutU64 appends v as two words, high word first.
func (w *Writer) PutU64(v uint64) {
	w.words = append(w.words, uint32(v>>32), uint32(v))
}

// PutI64 appends a signed 64-bit value.
//
//simvet:allow contgen emits PutI64 for int64 record fields (internal/contgen)
func (w *Writer) PutI64(v int64) { w.PutU64(uint64(v)) }

// PutBool appends a boolean as one word.
func (w *Writer) PutBool(v bool) {
	if v {
		w.PutU32(1)
	} else {
		w.PutU32(0)
	}
}

// PutRaw appends words verbatim, with no length prefix. Callers use it to
// splice an already-encoded record into a larger payload.
func (w *Writer) PutRaw(vs []uint32) { w.words = append(w.words, vs...) }

// PutU32s appends a length-prefixed vector of words.
func (w *Writer) PutU32s(vs []uint32) {
	w.PutU32(uint32(len(vs)))
	w.words = append(w.words, vs...)
}

// Words returns the encoded payload. It aliases the Writer's buffer:
// write nothing more until the caller is done with it, and after a
// Reset copy it out first.
func (w *Writer) Words() []uint32 { return w.words }

// Reset empties the Writer for reuse, keeping its buffer, so a
// long-lived Writer encodes without allocating once it has grown.
func (w *Writer) Reset() { w.words = w.words[:0] }

// ErrShortPayload is returned when a Reader runs out of words.
var ErrShortPayload = errors.New("msg: payload too short")

// Reader decodes a payload of 32-bit words. Errors are sticky: after the
// first failure every subsequent Get returns zero and Err reports it.
type Reader struct {
	words []uint32
	pos   int
	err   error
}

// NewReader returns a Reader over the payload.
func NewReader(words []uint32) *Reader { return &Reader{words: words} }

// Reset points the Reader at a new payload: it rewinds to the first
// word and clears any sticky error.
func (r *Reader) Reset(words []uint32) { *r = Reader{words: words} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread words.
func (r *Reader) Remaining() int { return len(r.words) - r.pos }

func (r *Reader) fail() uint32 {
	if r.err == nil {
		r.err = ErrShortPayload
	}
	return 0
}

// U32 reads one word.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.pos >= len(r.words) {
		return r.fail()
	}
	v := r.words[r.pos]
	r.pos++
	return v
}

// U64 reads two words written by PutU64.
func (r *Reader) U64() uint64 {
	hi := r.U32()
	lo := r.U32()
	return uint64(hi)<<32 | uint64(lo)
}

// I64 reads a signed 64-bit value.
//
//simvet:allow contgen emits I64 to decode int64 record fields (internal/contgen)
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a boolean word.
func (r *Reader) Bool() bool { return r.U32() != 0 }

// U32s reads a length-prefixed vector.
func (r *Reader) U32s() []uint32 {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.words) {
		r.fail()
		return nil
	}
	vs := make([]uint32, n)
	copy(vs, r.words[r.pos:r.pos+n])
	r.pos += n
	return vs
}

// Marshaler is implemented by argument records, reply records, and
// continuation records (the "live variables at the point of migration").
type Marshaler interface {
	MarshalWords(w *Writer)
}

// Unmarshaler reconstructs a record from wire words.
type Unmarshaler interface {
	UnmarshalWords(r *Reader) error
}

// Decode unmarshals words into u, insisting the payload is fully
// consumed. It resets r over words, so a long-lived Reader decodes
// without allocating.
func (r *Reader) Decode(words []uint32, u Unmarshaler) error {
	r.Reset(words)
	if err := u.UnmarshalWords(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("msg: %d trailing words after decode", r.Remaining())
	}
	return nil
}
