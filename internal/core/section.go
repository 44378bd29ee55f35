package core

import (
	"encoding/binary"
	"fmt"

	"unitp/internal/cryptoutil"
)

// section is an append-only snapshot section held in its encoded form:
// a big-endian u32 item count, then one length-prefixed field per item,
// exactly as the snapshot lays it out. Each item is encoded once, when
// it is added; a snapshot writes the chunks themselves as parts, and
// the WAL journal copies the field add returns.
//
// The bytes live in chunks of at least sectionChunk bytes, and a chunk
// is never regrown: a field is sized before it is encoded, and one that
// does not fit in the last chunk starts a new chunk (an item larger
// than a chunk gets a chunk of its own). One slice grown by append
// would copy the whole section at every growth step.
type section struct {
	chunks [][]byte          // chunks[0] starts with the item count
	n      int               // items
	enc    cryptoutil.Buffer // add's encoder, kept here so it is not allocated per item
}

// sectionChunk is the smallest chunk a section allocates.
const sectionChunk = 64 << 10

// emptySection is the parts of a section with no items: a zero count.
// It is only ever read.
var emptySection = [][]byte{{0, 0, 0, 0}}

// add encodes one item, whose body put writes in exactly size bytes, as
// a field at the section's end. It returns the field, length prefix
// included: a view into the section, valid while the section is.
func (s *section) add(size int, put func(b *cryptoutil.Buffer)) []byte {
	last := s.room(4 + size)
	s.enc = cryptoutil.WrapBuffer(last)
	start := s.enc.BeginField()
	put(&s.enc)
	s.enc.EndField(start)
	grown := s.enc.Bytes()
	if len(grown) != len(last)+4+size || cap(grown) != cap(last) {
		panic(fmt.Sprintf("core: section item sized %d bytes encoded %d", size, len(grown)-len(last)-4))
	}
	s.chunks[len(s.chunks)-1] = grown
	s.n++
	binary.BigEndian.PutUint32(s.chunks[0], uint32(s.n))
	return grown[len(last):]
}

// addRaw appends an item already encoded as body, as one copy.
func (s *section) addRaw(body []byte) []byte {
	return s.add(len(body), func(b *cryptoutil.Buffer) { b.PutRaw(body) })
}

// room returns the last chunk, with at least n bytes of spare capacity:
// a new chunk when the last one has less.
func (s *section) room(n int) []byte {
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, make([]byte, 4, max(sectionChunk, 4+n)))
	}
	last := s.chunks[len(s.chunks)-1]
	if cap(last)-len(last) < n {
		last = make([]byte, 0, max(sectionChunk, n))
		s.chunks = append(s.chunks, last)
	}
	return last
}

// parts returns the section's encoding as snapshot parts: the chunks
// themselves, which the caller must only read.
func (s *section) parts() [][]byte {
	if len(s.chunks) == 0 {
		return emptySection
	}
	return s.chunks
}

// each calls fn with every item's body, in order. The bodies are views
// into the section.
func (s *section) each(fn func(body []byte)) {
	for i, c := range s.chunks {
		if i == 0 {
			c = c[4:]
		}
		for len(c) > 0 {
			n := binary.BigEndian.Uint32(c)
			fn(c[4 : 4+n])
			c = c[4+n:]
		}
	}
}

// extend appends raw, n fields the caller has checked, as one copy.
func (s *section) extend(raw []byte, n int) {
	if n == 0 {
		return
	}
	last := s.room(len(raw))
	s.chunks[len(s.chunks)-1] = append(last, raw...)
	s.n += n
	binary.BigEndian.PutUint32(s.chunks[0], uint32(s.n))
}

// readFields reads n fields at r's position in data, calling check with
// each field's body in order, and returns their bytes, a view into
// data.
func readFields(r *cryptoutil.Reader, data []byte, n int, check func(body []byte) error) ([]byte, error) {
	start := len(data) - r.Remaining()
	for i := 0; i < n && r.Err() == nil; i++ {
		body := r.Field()
		if r.Err() != nil {
			break
		}
		if err := check(body); err != nil {
			return nil, err
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return data[start : len(data)-r.Remaining()], nil
}
