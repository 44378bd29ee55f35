package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL frame layout: every record is framed as
//
//	u32 length | u32 CRC-32C(payload) | payload
//
// A reader accepts the longest valid prefix of frames and reports how it
// stopped: a clean end, a torn tail (partial header, payload shorter
// than the length prefix, or a CRC mismatch on the final bytes), or
// trailing garbage — all of which recovery treats the same way, by
// truncating to the valid prefix. Because a record only "exists" once
// its full frame is durable and its CRC matches, a torn write can lose
// the tail record but can never invent or alter one.

// Frame limits and errors.
var (
	// ErrRecordTooLarge is returned when appending a record above
	// MaxRecordSize.
	ErrRecordTooLarge = errors.New("store: WAL record exceeds maximum size")
)

// MaxRecordSize bounds one WAL record; a hostile or garbage length
// prefix beyond it is treated as a corrupt tail, not an allocation.
const MaxRecordSize = 4 << 20

// walFrameOverhead is the per-record framing cost in bytes.
const walFrameOverhead = 8

// castagnoli is the CRC-32C table (the checksum used by most production
// log formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed record to buf.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordSize {
		return nil, ErrRecordTooLarge
	}
	var hdr [walFrameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// walScan is the result of scanning a WAL file's bytes.
type walScan struct {
	// records are the valid records, in append order.
	records [][]byte

	// validBytes is the length of the valid frame prefix.
	validBytes int

	// truncatedBytes counts bytes past the valid prefix (torn tail or
	// trailing garbage) that recovery discards.
	truncatedBytes int
}

// scanWAL walks data frame by frame, collecting the longest valid
// prefix. It never fails: damage is expressed as truncation.
func scanWAL(data []byte) walScan {
	s := walScan{}
	off := 0
	for {
		if len(data)-off < walFrameOverhead {
			break // clean end or partial header
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > MaxRecordSize || len(data)-off-walFrameOverhead < n {
			break // garbage length or torn payload
		}
		payload := data[off+walFrameOverhead : off+walFrameOverhead+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupt record: cut here
		}
		rec := make([]byte, n)
		copy(rec, payload)
		s.records = append(s.records, rec)
		off += walFrameOverhead + n
	}
	s.validBytes = off
	s.truncatedBytes = len(data) - off
	return s
}

// Snapshot envelope: u32 magic | u8 version | u64 generation |
// u32 length | payload | u32 CRC-32C(everything before the CRC).
// Version 2 is a delta envelope, which names the full snapshot it
// applies to between the generation and the length: u64 base
// generation | u32 the base file's CRC. A snapshot is either wholly
// valid or ignored; there is no partial acceptance, because the atomic
// temp-write/fsync/rename protocol means a visible *.snap file should
// always be complete — the CRC catches the cases where it is not (bit
// rot, injected garbage).

const (
	snapshotMagic   = 0x55545053 // "UTPS"
	snapshotVersion = 1
	deltaVersion    = 2
	snapshotCRCLen  = 4

	// SnapshotHeaderLen is the size of the snapshot envelope's header.
	// A caller of WriteSnapshotFrame encodes its state after this many
	// reserved bytes, so the store frames the state in place.
	SnapshotHeaderLen = 4 + 1 + 8 + 4

	// DeltaHeaderLen is the size of the delta envelope's header, which
	// a caller of WriteDeltaFrame reserves the same way.
	DeltaHeaderLen = SnapshotHeaderLen + 8 + 4
)

// envelope is a snapshot file's header, less its length.
type envelope struct {
	gen     uint64
	base    uint64 // the full snapshot a delta applies to; 0 for a full snapshot
	baseCRC uint32 // the base file's CRC (a delta only)
}

// delta reports whether the envelope is a delta's.
func (e envelope) delta() bool { return e.base != 0 }

// headerLen is the envelope's header size.
func (e envelope) headerLen() int {
	if e.delta() {
		return DeltaHeaderLen
	}
	return SnapshotHeaderLen
}

// writeSnapshotParts writes parts, a state preceded by env's header
// length of reserved bytes of the first part, to w as a complete
// envelope, one Write per part: it fills in the header, chains the CRC
// over every part on a second goroutine while the parts before the last
// are written, and appends the CRC to the last part (in place, given 4
// bytes of spare capacity) before writing it. It returns the CRC, and
// only once that goroutine is done, so the caller may reuse the parts.
func writeSnapshotParts(w io.Writer, env envelope, parts [][]byte) (uint32, error) {
	putSnapshotHeader(env, parts)
	last := len(parts) - 1
	sum := make(chan uint32, 1)
	go func() { sum <- snapshotCRC(parts) }()
	for _, part := range parts[:last] {
		if _, err := w.Write(part); err != nil {
			<-sum
			return 0, err
		}
	}
	crc := <-sum
	parts[last] = binary.BigEndian.AppendUint32(parts[last], crc)
	_, err := w.Write(parts[last])
	return crc, err
}

// putSnapshotHeader fills in the envelope header reserved at the start
// of parts[0] for a state of parts' total length less the header.
func putSnapshotHeader(env envelope, parts [][]byte) {
	frame := parts[0]
	size := -env.headerLen()
	for _, part := range parts {
		size += len(part)
	}
	binary.BigEndian.PutUint32(frame[0:4], snapshotMagic)
	frame[4] = snapshotVersion
	binary.BigEndian.PutUint64(frame[5:13], env.gen)
	if env.delta() {
		frame[4] = deltaVersion
		binary.BigEndian.PutUint64(frame[13:21], env.base)
		binary.BigEndian.PutUint32(frame[21:25], env.baseCRC)
	}
	binary.BigEndian.PutUint32(frame[env.headerLen()-4:], uint32(size))
}

// snapshotCRC chains the envelope's CRC-32C over every part.
func snapshotCRC(parts [][]byte) uint32 {
	var sum uint32
	for _, part := range parts {
		sum = crc32.Update(sum, castagnoli, part)
	}
	return sum
}

// decodeSnapshot validates an envelope, full or delta, and returns its
// header, its CRC and a copy of its state.
func decodeSnapshot(data []byte) (envelope, uint32, []byte, error) {
	var env envelope
	if len(data) < SnapshotHeaderLen+snapshotCRCLen {
		return env, 0, nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(data))
	}
	if binary.BigEndian.Uint32(data[0:4]) != snapshotMagic {
		return env, 0, nil, errors.New("store: snapshot magic mismatch")
	}
	env.gen = binary.BigEndian.Uint64(data[5:13])
	switch data[4] {
	case snapshotVersion:
	case deltaVersion:
		if len(data) < DeltaHeaderLen+snapshotCRCLen {
			return env, 0, nil, fmt.Errorf("store: delta snapshot too short (%d bytes)", len(data))
		}
		env.base = binary.BigEndian.Uint64(data[13:21])
		env.baseCRC = binary.BigEndian.Uint32(data[21:25])
		if env.base == 0 || env.base >= env.gen {
			return env, 0, nil, fmt.Errorf("store: delta snapshot %d names base %d", env.gen, env.base)
		}
	default:
		return env, 0, nil, fmt.Errorf("store: unsupported snapshot version %d", data[4])
	}
	hdr := env.headerLen()
	n := int(binary.BigEndian.Uint32(data[hdr-4 : hdr]))
	if len(data) != hdr+n+snapshotCRCLen {
		return env, 0, nil, fmt.Errorf("store: snapshot length mismatch (%d payload, %d total)", n, len(data))
	}
	crc := binary.BigEndian.Uint32(data[hdr+n:])
	if crc32.Checksum(data[:hdr+n], castagnoli) != crc {
		return env, 0, nil, errors.New("store: snapshot CRC mismatch")
	}
	return env, crc, bytes.Clone(data[hdr : hdr+n]), nil
}
