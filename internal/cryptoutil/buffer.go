package cryptoutil

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBufferUnderflow is returned when a Reader runs out of bytes while
// decoding a structure.
var ErrBufferUnderflow = errors.New("cryptoutil: buffer underflow")

// ErrFieldTooLarge is returned when a length-prefixed field exceeds the
// decoder's sanity bound.
var ErrFieldTooLarge = errors.New("cryptoutil: length-prefixed field too large")

// MaxFieldLen bounds a single length-prefixed field. TPM structures and
// protocol messages in this system are all well under 1 MiB; the bound
// protects decoders from hostile length prefixes, so an encoder of
// persisted state must refuse a longer field.
const MaxFieldLen = 1 << 20

// Buffer builds big-endian wire structures in the style of the TPM
// specification (fixed-width integers, 32-bit length-prefixed byte fields).
// The zero value is an empty buffer ready for use.
type Buffer struct {
	data []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{data: make([]byte, 0, capacity)}
}

// WrapBuffer returns a Buffer that encodes after p's contents, in p's
// spare capacity until it runs out.
func WrapBuffer(p []byte) Buffer {
	return Buffer{data: p}
}

// Bytes returns the accumulated wire bytes. The caller must not modify the
// returned slice if it will keep using the Buffer.
func (b *Buffer) Bytes() []byte { return b.data }

// Len returns the current encoded length.
func (b *Buffer) Len() int { return len(b.data) }

// PutUint8 appends a single byte.
func (b *Buffer) PutUint8(v uint8) {
	b.data = append(b.data, v)
}

// The Put methods append with the append builtin on b.data itself:
// when the capacity suffices, the compiler then stores only the new
// length, not the slice pointer, so a large encode pays no GC write
// barrier per field (binary.BigEndian.AppendUint64 returns a slice,
// and storing it back does).

// PutUint16 appends a big-endian 16-bit value.
func (b *Buffer) PutUint16(v uint16) {
	b.data = append(b.data, byte(v>>8), byte(v))
}

// PutUint32 appends a big-endian 32-bit value.
func (b *Buffer) PutUint32(v uint32) {
	b.data = append(b.data, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutUint64 appends a big-endian 64-bit value.
func (b *Buffer) PutUint64(v uint64) {
	b.data = append(b.data, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutRaw appends raw bytes with no length prefix (fixed-size fields such as
// digests).
func (b *Buffer) PutRaw(p []byte) {
	b.data = append(b.data, p...)
}

// PutDigest appends a TPM digest as a fixed 20-byte field.
func (b *Buffer) PutDigest(d Digest) {
	b.data = append(b.data, d[:]...)
}

// PutBytes appends a 32-bit length prefix followed by the bytes.
func (b *Buffer) PutBytes(p []byte) {
	b.PutUint32(uint32(len(p)))
	b.data = append(b.data, p...)
}

// BeginField starts a length-prefixed field encoded in place: it
// reserves the 32-bit prefix and returns the field's start offset,
// which EndField needs once the field's contents are appended. The
// result is the same bytes PutBytes would write for those contents,
// without encoding them into a separate slice first.
func (b *Buffer) BeginField() int {
	b.data = append(b.data, 0, 0, 0, 0)
	return len(b.data)
}

// EndField fills in the length prefix of the field BeginField started
// at start.
func (b *Buffer) EndField(start int) {
	binary.BigEndian.PutUint32(b.data[start-4:start], uint32(len(b.data)-start))
}

// PutString appends a length-prefixed UTF-8 string.
func (b *Buffer) PutString(s string) {
	b.PutUint32(uint32(len(s)))
	b.data = append(b.data, s...)
}

// PutBool appends a boolean as one byte.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.PutUint8(1)
	} else {
		b.PutUint8(0)
	}
}

// Reader decodes big-endian wire structures produced by Buffer. All methods
// return ErrBufferUnderflow once the input is exhausted; after the first
// error every subsequent call fails, so callers may decode a full structure
// and check Err once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader {
	return &Reader{data: p}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// ExpectEOF records an error if undecoded bytes remain.
func (r *Reader) ExpectEOF() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		r.err = fmt.Errorf("cryptoutil: %d trailing bytes after structure", r.Remaining())
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.err = ErrBufferUnderflow
		return nil
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p
}

// Uint8 decodes a single byte.
func (r *Reader) Uint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uint16 decodes a big-endian 16-bit value.
func (r *Reader) Uint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// Uint32 decodes a big-endian 32-bit value.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// Uint64 decodes a big-endian 64-bit value.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Raw decodes n raw bytes, returning a copy (nil for n == 0, so decoded
// structures compare equal to their nil-fielded originals).
func (r *Reader) Raw(n int) []byte {
	p := r.take(n)
	if p == nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Skip steps over n bytes without decoding them.
func (r *Reader) Skip(n int) {
	r.take(n)
}

// Digest decodes a fixed 20-byte TPM digest.
func (r *Reader) Digest() Digest {
	var d Digest
	p := r.take(DigestSize)
	if p != nil {
		copy(d[:], p)
	}
	return d
}

// Bytes decodes a 32-bit length-prefixed byte field, returning a copy
// (nil for an empty field, as Raw).
func (r *Reader) Bytes() []byte {
	p := r.Field()
	if len(p) == 0 {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// Field decodes a 32-bit length-prefixed byte field like Bytes, but
// returns a view into the input rather than a copy.
func (r *Reader) Field() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if n > MaxFieldLen {
		r.err = ErrFieldTooLarge
		return nil
	}
	return r.take(int(n))
}

// String decodes a length-prefixed UTF-8 string.
func (r *Reader) String() string {
	return string(r.Bytes())
}

// Bool decodes a one-byte boolean. Only 0 and 1 are accepted: a strict
// codec keeps every encoding canonical (one value, one byte string), so
// a flipped bit in a persisted bool is detectable rather than silently
// collapsing to true.
func (r *Reader) Bool() bool {
	v := r.Uint8()
	if r.err == nil && v > 1 {
		r.err = fmt.Errorf("cryptoutil: non-canonical boolean byte %#x", v)
	}
	return v != 0
}
