package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

// encodeDelta builds the delta envelope older stores wrote (version 2),
// field by field: magic, version, generation, the base's generation and
// the base file's CRC, length, state, CRC.
func encodeDelta(gen, base uint64, baseCRC uint32, state []byte) []byte {
	env := binary.BigEndian.AppendUint32(nil, snapshotMagic)
	env = append(env, deltaVersion)
	env = binary.BigEndian.AppendUint64(env, gen)
	env = binary.BigEndian.AppendUint64(env, base)
	env = binary.BigEndian.AppendUint32(env, baseCRC)
	env = binary.BigEndian.AppendUint32(env, uint32(len(state)))
	env = append(env, state...)
	return binary.BigEndian.AppendUint32(env, crc32.Checksum(env, castagnoli))
}

// putFile writes data as the synced file name.
func putFile(t *testing.T, b *MemBackend, name string, data []byte) {
	t.Helper()
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

// deltaStore lays out what an older store held after a delta rotation:
// the full base (generation 1, its WAL retired), the delta over it
// (generation 2) and the delta's WAL with one record, plus a stray temp
// file as a crash leaves one.
func deltaStore(t *testing.T) *MemBackend {
	t.Helper()
	b := NewMemBackend()
	base := encodeSnapshot(1, []byte("base"))
	putFile(t, b, snapName(1), base)
	putFile(t, b, snapName(2), encodeDelta(2, 1, binary.BigEndian.Uint32(base[len(base)-snapshotCRCLen:]), []byte("d2")))
	putFile(t, b, walName(2), mustFrame(t, "r2"))
	putFile(t, b, snapName(3)+tmpSuffix, nil)
	return b
}

// refusedAsDelta checks Open over b fails with ErrDeltaSnapshot and
// leaves every file in place.
func refusedAsDelta(t *testing.T, b *MemBackend) {
	t.Helper()
	before, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b)
	if !errors.Is(err, ErrDeltaSnapshot) {
		t.Fatalf("Open = %v, %v; want ErrDeltaSnapshot", s, err)
	}
	after, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatalf("refused Open changed the files: %v -> %v", before, after)
	}
}

// TestDeltaStoreRefused checks Open refuses a store whose newest
// generation is a delta over its intact base, by name and without
// removing anything, while a full generation written after a delta
// opens and retires it.
func TestDeltaStoreRefused(t *testing.T) {
	refusedAsDelta(t, deltaStore(t))

	b := deltaStore(t)
	putFile(t, b, snapName(3), encodeSnapshot(3, []byte("full")))
	s, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(s.Snapshot()); got != "full" || len(s.Records()) != 0 {
		t.Fatalf("recovered %q + %d records, want the full generation 3", got, len(s.Records()))
	}
	if names, _ := b.List(); !slices.Equal(names, []string{snapName(3)}) {
		t.Fatalf("files after opening the full generation = %v", names)
	}
}

// TestDeltaRefusedWithoutItsBase checks a delta is refused the same way
// when its base is missing, is another file than the one it names (a
// different CRC), or is itself a delta: Open never falls back to an
// older generation past it.
func TestDeltaRefusedWithoutItsBase(t *testing.T) {
	for name, damage := range map[string]func(t *testing.T, b *MemBackend){
		"missing": func(t *testing.T, b *MemBackend) {
			if err := b.Remove(snapName(1)); err != nil {
				t.Fatal(err)
			}
		},
		"other crc": func(t *testing.T, b *MemBackend) {
			putFile(t, b, snapName(1), encodeSnapshot(1, []byte("another base")))
		},
		"delta base": func(t *testing.T, b *MemBackend) {
			delta, err := b.ReadFile(snapName(2))
			if err != nil {
				t.Fatal(err)
			}
			putFile(t, b, snapName(3), encodeDelta(3, 2, binary.BigEndian.Uint32(delta[len(delta)-snapshotCRCLen:]), []byte("d3")))
			if err := b.Remove(snapName(1)); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			b := deltaStore(t)
			damage(t, b)
			refusedAsDelta(t, b)
		})
	}
}
