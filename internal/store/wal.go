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
// A snapshot is either wholly valid or ignored; there is no partial
// acceptance, because the atomic temp-write/fsync/rename protocol means
// a visible *.snap file should always be complete — the CRC catches the
// cases where it is not (bit rot, injected garbage). Version 2 was a
// delta over an earlier full snapshot, which older stores wrote: a
// CRC-valid one is recognised only to be refused (ErrDeltaSnapshot).

const (
	snapshotMagic   = 0x55545053 // "UTPS"
	snapshotVersion = 1
	deltaVersion    = 2
	snapshotCRCLen  = 4

	// SnapshotHeaderLen is the size of the snapshot envelope's header.
	// A caller of WriteSnapshotFrame encodes its state after this many
	// reserved bytes, so the store frames the state in place.
	SnapshotHeaderLen = 4 + 1 + 8 + 4
)

// writeSnapshotParts writes parts, a state preceded by
// SnapshotHeaderLen reserved bytes of the first part, to w as a
// complete envelope for generation gen, one Write per part: it fills in
// the header, chains the CRC over every part on a second goroutine
// while the parts before the last are written, and appends the CRC to
// the last part (in place, given 4 bytes of spare capacity) before
// writing it. It returns only once that goroutine is done, so the
// caller may reuse the parts.
func writeSnapshotParts(w io.Writer, gen uint64, parts [][]byte) error {
	putSnapshotHeader(gen, parts)
	last := len(parts) - 1
	sum := make(chan uint32, 1)
	go func() { sum <- snapshotCRC(parts) }()
	for _, part := range parts[:last] {
		if _, err := w.Write(part); err != nil {
			<-sum
			return err
		}
	}
	parts[last] = binary.BigEndian.AppendUint32(parts[last], <-sum)
	_, err := w.Write(parts[last])
	return err
}

// putSnapshotHeader fills in the envelope header reserved at the start
// of parts[0] for a state of parts' total length less the header.
func putSnapshotHeader(gen uint64, parts [][]byte) {
	frame := parts[0]
	size := -SnapshotHeaderLen
	for _, part := range parts {
		size += len(part)
	}
	binary.BigEndian.PutUint32(frame[0:4], snapshotMagic)
	frame[4] = snapshotVersion
	binary.BigEndian.PutUint64(frame[5:13], gen)
	binary.BigEndian.PutUint32(frame[13:17], uint32(size))
}

// snapshotCRC chains the envelope's CRC-32C over every part.
func snapshotCRC(parts [][]byte) uint32 {
	var sum uint32
	for _, part := range parts {
		sum = crc32.Update(sum, castagnoli, part)
	}
	return sum
}

// decodeSnapshot validates an envelope and returns (generation, a copy
// of its state). A CRC-valid delta envelope fails with
// ErrDeltaSnapshot.
func decodeSnapshot(data []byte) (uint64, []byte, error) {
	if len(data) < SnapshotHeaderLen+snapshotCRCLen {
		return 0, nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(data))
	}
	if binary.BigEndian.Uint32(data[0:4]) != snapshotMagic {
		return 0, nil, errors.New("store: snapshot magic mismatch")
	}
	gen := binary.BigEndian.Uint64(data[5:13])
	end := len(data) - snapshotCRCLen
	crcOK := crc32.Checksum(data[:end], castagnoli) == binary.BigEndian.Uint32(data[end:])
	switch {
	case data[4] == deltaVersion && crcOK:
		return gen, nil, ErrDeltaSnapshot
	case data[4] != snapshotVersion:
		return 0, nil, fmt.Errorf("store: unsupported snapshot version %d", data[4])
	}
	n := int(binary.BigEndian.Uint32(data[13:17]))
	if len(data) != SnapshotHeaderLen+n+snapshotCRCLen {
		return 0, nil, fmt.Errorf("store: snapshot length mismatch (%d payload, %d total)", n, len(data))
	}
	if !crcOK {
		return 0, nil, errors.New("store: snapshot CRC mismatch")
	}
	return gen, bytes.Clone(data[SnapshotHeaderLen:end]), nil
}
