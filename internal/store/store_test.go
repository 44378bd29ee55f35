package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

// openFresh opens a store over b and bootstraps the first generation.
func openFresh(t *testing.T, b Backend, state []byte) *Store {
	t.Helper()
	s, err := Open(b)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Snapshot() != nil {
		t.Fatalf("virgin backend returned a snapshot")
	}
	if err := s.WriteSnapshot(state); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return s
}

func TestWALRoundTrip(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("state-0"))

	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i*7))))
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	r, err := Open(b)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("state-0")) {
		t.Fatalf("snapshot = %q, want state-0", got)
	}
	recs := r.Records()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	st := r.Stats()
	if st.TruncatedBytes != 0 || st.SkippedSnapshots != 0 {
		t.Fatalf("clean log reported damage: %+v", st)
	}
}

func TestAppendBeforeSnapshot(t *testing.T) {
	s, err := Open(NewMemBackend())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Append([]byte("x")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Append before snapshot: %v, want ErrNoSnapshot", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Sync before snapshot: %v, want ErrNoSnapshot", err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.Append(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: %v, want ErrRecordTooLarge", err)
	}
}

// TestTornTail cuts the WAL mid-frame at every possible byte boundary
// and checks recovery keeps exactly the records whose frames fully
// survived.
func TestTornTail(t *testing.T) {
	var full []byte
	var frames []int // cumulative frame-end offsets
	for i := 0; i < 5; i++ {
		rec := []byte(fmt.Sprintf("payload-%d", i))
		var err error
		full, err = appendFrame(full, rec)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		scan := scanWAL(full[:cut])
		wantRecs := 0
		for _, end := range frames {
			if end <= cut {
				wantRecs++
			}
		}
		if len(scan.records) != wantRecs {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(scan.records), wantRecs)
		}
		if scan.validBytes+scan.truncatedBytes != cut {
			t.Fatalf("cut=%d: valid %d + truncated %d != %d", cut, scan.validBytes, scan.truncatedBytes, cut)
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	var full []byte
	for i := 0; i < 3; i++ {
		var err error
		full, err = appendFrame(full, []byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	garbage := append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0x01)
	scan := scanWAL(garbage)
	if len(scan.records) != 3 {
		t.Fatalf("recovered %d records under trailing garbage, want 3", len(scan.records))
	}
	if scan.truncatedBytes != len(garbage)-len(full) {
		t.Fatalf("truncated %d bytes, want %d", scan.truncatedBytes, len(garbage)-len(full))
	}
}

// TestWALBitFlips flips every bit of a framed WAL and checks the
// damaged record (and everything after it) is dropped, never accepted
// with altered contents.
func TestWALBitFlips(t *testing.T) {
	var full []byte
	recs := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("gamma")}
	for _, r := range recs {
		var err error
		full, err = appendFrame(full, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	for bit := 0; bit < len(full)*8; bit++ {
		mut := append([]byte(nil), full...)
		mut[bit/8] ^= 1 << (bit % 8)
		scan := scanWAL(mut)
		for i, got := range scan.records {
			if i >= len(recs) || !bytes.Equal(got, recs[i]) {
				t.Fatalf("bit %d: accepted altered record %d", bit, i)
			}
		}
	}
}

// TestSnapshotBitFlips flips every bit of an encoded snapshot and
// requires decode to reject every mutation.
func TestSnapshotBitFlips(t *testing.T) {
	enc := encodeSnapshot(7, []byte("provider-state-blob"))
	if _, _, err := decodeSnapshot(enc); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	for bit := 0; bit < len(enc)*8; bit++ {
		mut := append([]byte(nil), enc...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("bit %d: tampered snapshot accepted", bit)
		}
	}
}

// TestSnapshotRotation checks generations advance, old files are
// retired, and only the newest state is recovered.
func TestSnapshotRotation(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("gen-1"))
	for i := 2; i <= 4; i++ {
		if err := s.Append([]byte(fmt.Sprintf("wal-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot([]byte(fmt.Sprintf("gen-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("files after rotation = %v, want exactly one snap + one wal", names)
	}
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("gen-4")) {
		t.Fatalf("recovered %q, want gen-4", got)
	}
	if len(r.Records()) != 0 {
		t.Fatalf("recovered %d WAL records after rotation, want 0", len(r.Records()))
	}
	if r.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", r.Generation())
	}
}

// TestCrashMidSnapshot crashes at every hookable operation during a
// snapshot rotation and checks recovery always lands on a consistent
// (snapshot, WAL) pair: either the old generation with its records or
// the new one with an empty WAL.
func TestCrashMidSnapshot(t *testing.T) {
	for _, split := range [][]int{nil, {1, 2}, {1, 1, 2, 3}} {
		t.Run(fmt.Sprintf("parts=%d", len(split)+1), func(t *testing.T) {
			crashMidSnapshot(t, split)
		})
	}
}

// crashMidSnapshot is TestCrashMidSnapshot for one rotation whose state
// is written in the parts split cuts it into (see snapshotParts).
func crashMidSnapshot(t *testing.T, split []int) {
	for crashAt := 0; ; crashAt++ {
		b := NewMemBackend()
		s := openFresh(t, b, []byte("old"))
		if err := s.Append([]byte("r1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}

		n := 0
		fired := false
		b.SetCrashHook(func(CrashEvent) bool {
			n++
			if n-1 == crashAt {
				fired = true
				return true
			}
			return false
		})
		frame, more := snapshotParts([]byte("new"), split...)
		err := s.WriteSnapshotFrame(frame, more...)
		b.SetCrashHook(nil)
		if !fired {
			if err != nil {
				t.Fatalf("crashAt=%d: unexpected error %v", crashAt, err)
			}
			break // exhausted all crash points
		}
		if err == nil {
			t.Fatalf("crashAt=%d: WriteSnapshot survived an injected crash", crashAt)
		}

		b.Recover(nil) // lose all unsynced bytes
		r, openErr := Open(b)
		if openErr != nil {
			t.Fatalf("crashAt=%d: reopen: %v", crashAt, openErr)
		}
		switch string(r.Snapshot()) {
		case "old":
			if len(r.Records()) != 1 || string(r.Records()[0]) != "r1" {
				t.Fatalf("crashAt=%d: old generation lost its WAL: %v", crashAt, r.Records())
			}
		case "new":
			if len(r.Records()) != 0 {
				t.Fatalf("crashAt=%d: new generation has stale records", crashAt)
			}
		default:
			t.Fatalf("crashAt=%d: recovered snapshot %q", crashAt, r.Snapshot())
		}
	}
}

// TestCrashLosesUnsyncedAppends checks an append without a sync is
// gone after crash+recovery, while synced appends survive.
func TestCrashLosesUnsyncedAppends(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	b.SetCrashHook(func(CrashEvent) bool { return true })
	if err := s.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash arm: %v, want ErrCrashed", err)
	}
	b.SetCrashHook(nil)
	b.Recover(nil)
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records()) != 1 || string(r.Records()[0]) != "durable" {
		t.Fatalf("recovered %q, want exactly [durable]", r.Records())
	}
}

// TestRecoverTornWrite exercises the tear callback: keep a prefix of
// the pending bytes plus garbage, and confirm scan-level truncation
// discards the damage.
func TestRecoverTornWrite(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("torn-away")); err != nil {
		t.Fatal(err)
	}
	// No sync: the second record sits in the unsynced window.
	b.Recover(func(name string, pending []byte) []byte {
		half := pending[:len(pending)/2]
		return append(append([]byte(nil), half...), 0xAA, 0x55, 0xAA)
	})
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records()) != 1 || string(r.Records()[0]) != "committed" {
		t.Fatalf("recovered %q, want exactly [committed]", r.Records())
	}
	if r.Stats().TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported in stats")
	}
}

// TestCorruptSnapshotFallsBack plants a valid old generation and a
// corrupted newer snapshot; Open must fall back to the old one.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("good"))
	if err := s.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Forge a newer, corrupt snapshot file.
	f, err := b.Create(snapName(9))
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeSnapshot(9, []byte("evil"))
	enc[len(enc)-1] ^= 0xFF
	if _, err := f.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("good")) {
		t.Fatalf("recovered %q, want good", got)
	}
	if len(r.Records()) != 1 || string(r.Records()[0]) != "tail" {
		t.Fatalf("recovered records %q, want [tail]", r.Records())
	}
	if r.Stats().SkippedSnapshots != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", r.Stats().SkippedSnapshots)
	}
	// The corrupt snapshot must have been cleaned up.
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == snapName(9) {
			t.Fatalf("corrupt snapshot not removed: %v", names)
		}
	}
}

// TestCorruptSnapshotRefusedWithNewerWAL leaves the files a crash
// between creating generation 2's WAL and removing generation 1's
// leaves, then damages snapshot 2: falling back to generation 1 would
// delete wal-2 and the records in it, so Open must refuse and keep
// every file.
func TestCorruptSnapshotRefusedWithNewerWAL(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("good"))
	appendSynced(t, s, "tail")
	s.Close()

	for name, data := range map[string][]byte{
		snapName(2): encodeSnapshot(2, []byte("next")),
		walName(2):  mustFrame(t, "after"),
	} {
		if name == snapName(2) {
			data[len(data)-1] ^= 0xFF
		}
		f, err := b.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	before, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(b)
	if !errors.Is(err, ErrNoFallback) {
		t.Fatalf("Open = %v, %v; want ErrNoFallback", r, err)
	}
	after, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatalf("refused Open changed the files: %v -> %v", before, after)
	}
}

// appendSynced appends and syncs one record.
func appendSynced(t *testing.T, s *Store, rec string) {
	t.Helper()
	if err := s.Append([]byte(rec)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// mustFrame frames one WAL record.
func mustFrame(t *testing.T, rec string) []byte {
	t.Helper()
	data, err := appendFrame(nil, []byte(rec))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDirBackendRoundTrip runs the same write/recover cycle over a real
// directory.
func TestDirBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := openFresh(t, b, []byte("disk-state"))
	for i := 0; i < 10; i++ {
		if err := s.Append([]byte(fmt.Sprintf("disk-rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	b2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("disk-state")) {
		t.Fatalf("recovered %q, want disk-state", got)
	}
	if len(r.Records()) != 10 {
		t.Fatalf("recovered %d records, want 10", len(r.Records()))
	}
}

// encodeSnapshot wraps state in the snapshot envelope, built field by
// field from its layout.
func encodeSnapshot(gen uint64, state []byte) []byte {
	env := binary.BigEndian.AppendUint32(nil, snapshotMagic)
	env = append(env, snapshotVersion)
	env = binary.BigEndian.AppendUint64(env, gen)
	env = binary.BigEndian.AppendUint32(env, uint32(len(state)))
	env = append(env, state...)
	return binary.BigEndian.AppendUint32(env, crc32.Checksum(env, castagnoli))
}

// TestWriteSnapshotFrameInPlace checks a state encoded after
// SnapshotHeaderLen reserved bytes, whole or continued in further
// parts, is framed in place with one write per part into exactly the
// envelope WriteSnapshot produces for the concatenated state, and
// recovers at Open.
func TestWriteSnapshotFrameInPlace(t *testing.T) {
	state := []byte("provider-state-encoded-in-place")
	for _, split := range [][]int{nil, {9, 20}, {0, 0}, {len(state), len(state)}, {3, 9, 9, 20, 27}} {
		b := NewMemBackend()
		var writes []string
		b.SetCrashHook(func(ev CrashEvent) bool {
			if ev.Op == OpWrite && ev.Phase == PhaseBefore {
				writes = append(writes, ev.Name)
			}
			return false
		})
		s, err := Open(b)
		if err != nil {
			t.Fatal(err)
		}
		frame, more := snapshotParts(state, split...)
		if err := s.WriteSnapshotFrame(frame, more...); err != nil {
			t.Fatal(err)
		}
		want := []string{snapName(1) + tmpSuffix}
		for range more {
			want = append(want, snapName(1)+tmpSuffix)
		}
		if fmt.Sprint(writes) != fmt.Sprint(want) {
			t.Fatalf("split %v: snapshot writes = %v, want exactly %v", split, writes, want)
		}
		got, err := b.ReadFile(snapName(1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, encodeSnapshot(1, state)) {
			t.Fatalf("split %v: framed snapshot differs from the WriteSnapshot envelope", split)
		}
		s.Close()

		s, err = Open(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.Snapshot(), state) {
			t.Fatalf("split %v: recovered %q, want %q", split, s.Snapshot(), state)
		}
		if err := s.WriteSnapshotFrame(make([]byte, SnapshotHeaderLen-1), more...); err == nil {
			t.Fatal("frame without header room accepted")
		}
	}
}

// snapshotParts splits state at the given offsets into the arguments
// of WriteSnapshotFrame: a frame holding the reserved header and the
// state up to the first offset, then one part per further piece. The
// last part gets no spare capacity, so the CRC append reallocates it.
func snapshotParts(state []byte, at ...int) (frame []byte, more [][]byte) {
	cuts := append(append([]int{0}, at...), len(state))
	frame = append(make([]byte, SnapshotHeaderLen), state[:cuts[1]]...)
	for i := 1; i+1 < len(cuts); i++ {
		more = append(more, bytes.Clone(state[cuts[i]:cuts[i+1]]))
	}
	return frame, more
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot envelope
// decoder: it must never panic, whatever it accepts must be the exact
// envelope of the generation and state it returns, and only a
// version-2 envelope may be refused as a delta.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(1, []byte("provider-state-blob")))
	f.Add(encodeSnapshot(1<<40, nil))
	f.Add(encodeSnapshot(7, bytes.Repeat([]byte{0xA5}, 300)))
	f.Add(encodeDelta(9, 7, 0xC0FFEE, []byte("delta-blob")))
	f.Add(encodeDelta(2, 1, 0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, state, err := decodeSnapshot(data)
		if errors.Is(err, ErrDeltaSnapshot) && data[4] != deltaVersion {
			t.Fatalf("version %d envelope refused as a delta", data[4])
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSnapshot(gen, state), data) {
			t.Fatalf("accepted envelope of generation %d (%d-byte state) does not re-encode to its input", gen, len(state))
		}
	})
}

// FuzzScanWAL feeds arbitrary bytes to the WAL reader recovery runs on
// every segment: it must never read past its input (the input's
// capacity is cut to its length, so a slice past the end panics), the
// records it keeps must be exactly the frames of the valid prefix it
// reports, and that prefix must rescan to the same records with
// nothing truncated.
func FuzzScanWAL(f *testing.F) {
	var full []byte
	for _, rec := range [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{0x5A}, 300)} {
		var err error
		if full, err = appendFrame(full, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := scanWAL(data[:len(data):len(data)])
		if scan.validBytes < 0 || scan.truncatedBytes < 0 || scan.validBytes+scan.truncatedBytes != len(data) {
			t.Fatalf("valid %d + truncated %d bytes of a %d-byte input", scan.validBytes, scan.truncatedBytes, len(data))
		}
		var framed []byte
		for _, rec := range scan.records {
			var err error
			if framed, err = appendFrame(framed, rec); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(framed, data[:scan.validBytes]) {
			t.Fatal("kept records are not the frames of the valid prefix")
		}
		prefix := data[:scan.validBytes:scan.validBytes]
		again := scanWAL(prefix)
		if again.validBytes != scan.validBytes || again.truncatedBytes != 0 || len(again.records) != len(scan.records) {
			t.Fatalf("valid prefix rescans to %d records, %d valid + %d truncated bytes; first scan kept %d records in %d bytes",
				len(again.records), again.validBytes, again.truncatedBytes, len(scan.records), scan.validBytes)
		}
		for i := range again.records {
			if !bytes.Equal(again.records[i], scan.records[i]) {
				t.Fatalf("record %d differs on rescan", i)
			}
		}
	})
}
