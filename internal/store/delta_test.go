package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// reopen opens a fresh store over b, failing the test on error.
func reopen(t *testing.T, b Backend) *Store {
	t.Helper()
	s, err := Open(b)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// writeDelta writes state as a delta over s's base.
func writeDelta(s *Store, state []byte) error {
	return s.WriteDeltaFrame(append(make([]byte, DeltaHeaderLen), state...))
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

// recovered is what Open hands the caller: base, delta and records.
func recovered(s *Store) string {
	recs := make([]string, len(s.Records()))
	for i, r := range s.Records() {
		recs[i] = string(r)
	}
	return fmt.Sprintf("%s+%s%v", s.Snapshot(), s.Delta(), recs)
}

// TestDeltaRotationRetainsBase checks a delta rotation keeps the base
// and retires only the previous delta and WAL, recovery hands back the
// base, the newest delta and its records, and a full rotation retires
// the base.
func TestDeltaRotationRetainsBase(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("base"))
	if err := writeDelta(s, nil); err != nil {
		t.Fatal(err)
	}
	appendSynced(t, s, "r2")
	if err := writeDelta(s, []byte("d3")); err != nil {
		t.Fatal(err)
	}
	appendSynced(t, s, "r3")
	names, _ := b.List()
	if want := []string{snapName(1), snapName(3), walName(3)}; !slices.Equal(names, want) {
		t.Fatalf("files after two deltas = %v, want %v", names, want)
	}
	st := s.Stats()
	if st.Snapshots != 3 || st.DeltaSnapshots != 2 || st.Generation != 3 || st.BaseGeneration != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := s.ReadSegment(); !errors.Is(err, ErrDeltaSegment) {
		t.Fatalf("ReadSegment of a delta generation = %v, want ErrDeltaSegment", err)
	}
	s.Close()

	r := reopen(t, b)
	if got := recovered(r); got != "base+d3[r3]" {
		t.Fatalf("recovered %s, want base+d3[r3]", got)
	}
	if st := r.Stats(); st.Generation != 3 || st.BaseGeneration != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
	// A delta written after Open still names the recovered base.
	if err := writeDelta(r, []byte("d4")); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSnapshot([]byte("full")); err != nil {
		t.Fatal(err)
	}
	names, _ = b.List()
	if want := []string{snapName(5), walName(5)}; !slices.Equal(names, want) {
		t.Fatalf("files after a full rotation = %v, want %v", names, want)
	}
	r.Close()
	if got := recovered(reopen(t, b)); got != "full+[]" {
		t.Fatalf("recovered %s, want full+[]", got)
	}
}

// TestDeltaNeedsBase checks a delta cannot be written before the first
// full snapshot.
func TestDeltaNeedsBase(t *testing.T) {
	s := reopen(t, NewMemBackend())
	if err := writeDelta(s, []byte("d")); err == nil {
		t.Fatal("delta with no base accepted")
	}
}

// TestDeltaRefusedWithoutItsBase checks Open refuses a delta whose base
// is missing, is another file than the one it names (a different CRC),
// or is itself a delta, and, with no older generation that still holds
// its WAL, refuses to open at all and deletes nothing.
func TestDeltaRefusedWithoutItsBase(t *testing.T) {
	forge := func(t *testing.T, b *MemBackend, gen uint64, enc []byte) {
		t.Helper()
		f, err := b.Create(snapName(gen))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(enc); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for name, damage := range map[string]func(t *testing.T, b *MemBackend){
		"missing": func(t *testing.T, b *MemBackend) {
			if err := b.Remove(snapName(1)); err != nil {
				t.Fatal(err)
			}
		},
		"other crc": func(t *testing.T, b *MemBackend) {
			forge(t, b, 1, encodeSnapshot(1, []byte("another base")))
		},
		"delta base": func(t *testing.T, b *MemBackend) {
			data, err := b.ReadFile(snapName(2))
			if err != nil {
				t.Fatal(err)
			}
			env, crc, _, err := decodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			forge(t, b, 3, encodeEnvelope(envelope{gen: 3, base: env.gen, baseCRC: crc}, []byte("d3")))
			if err := b.Remove(snapName(1)); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			b := NewMemBackend()
			s := openFresh(t, b, []byte("base"))
			if err := writeDelta(s, []byte("d2")); err != nil {
				t.Fatal(err)
			}
			appendSynced(t, s, "r2")
			s.Close()
			damage(t, b)
			if _, err := b.Create(snapName(3) + tmpSuffix); err != nil { // stray, as a crash leaves one
				t.Fatal(err)
			}
			before, err := b.List()
			if err != nil {
				t.Fatal(err)
			}
			// The only fallbacks past the refused delta are a base whose
			// WAL is gone, or nothing: both would silently drop r2, so
			// Open refuses and leaves every file in place.
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
		})
	}
}

// TestCrashMidDeltaRotation crashes at every hookable operation of a
// rotation out of a store holding a base, and checks recovery lands on
// generation g or g+1 complete — the base with the matching delta (or
// none) and records — never a delta without its base.
func TestCrashMidDeltaRotation(t *testing.T) {
	cases := []struct {
		name       string
		setup      func(t *testing.T, s *Store) // from gen 1 = "base" with record r1
		rotate     func(s *Store) error
		old, fresh string
	}{
		{
			name:   "first delta",
			setup:  func(*testing.T, *Store) {},
			rotate: func(s *Store) error { return writeDelta(s, []byte("d2")) },
			old:    "base+[r1]", fresh: "base+d2[]",
		},
		{
			name: "delta over delta",
			setup: func(t *testing.T, s *Store) {
				if err := writeDelta(s, []byte("d2")); err != nil {
					t.Fatal(err)
				}
				appendSynced(t, s, "r2")
			},
			rotate: func(s *Store) error {
				frame, more := snapshotParts([]byte("d3"), 1)
				frame = append(make([]byte, DeltaHeaderLen-SnapshotHeaderLen), frame...)
				return s.WriteDeltaFrame(frame, more...)
			},
			old: "base+d2[r2]", fresh: "base+d3[]",
		},
		{
			name: "full after delta",
			setup: func(t *testing.T, s *Store) {
				if err := writeDelta(s, []byte("d2")); err != nil {
					t.Fatal(err)
				}
				appendSynced(t, s, "r2")
			},
			rotate: func(s *Store) error { return s.WriteSnapshot([]byte("full")) },
			old:    "base+d2[r2]", fresh: "full+[]",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for crashAt := 0; ; crashAt++ {
				b := NewMemBackend()
				s := openFresh(t, b, []byte("base"))
				appendSynced(t, s, "r1")
				c.setup(t, s)

				n, fired := 0, false
				b.SetCrashHook(func(CrashEvent) bool {
					n++
					fired = fired || n-1 == crashAt
					return n-1 == crashAt
				})
				err := c.rotate(s)
				b.SetCrashHook(nil)
				if !fired {
					if err != nil {
						t.Fatalf("crashAt=%d: unexpected error %v", crashAt, err)
					}
					if crashAt == 0 {
						t.Fatal("rotation made no hookable operation")
					}
					break
				}
				if err == nil {
					t.Fatalf("crashAt=%d: rotation survived an injected crash", crashAt)
				}
				b.Recover(nil)
				r := reopen(t, b)
				if got := recovered(r); got != c.old && got != c.fresh {
					t.Fatalf("crashAt=%d: recovered %s, want %s or %s", crashAt, got, c.old, c.fresh)
				}
				if r.Delta() != nil && !bytes.Equal(r.Snapshot(), []byte("base")) {
					t.Fatalf("crashAt=%d: delta recovered over %q", crashAt, r.Snapshot())
				}
			}
		})
	}
}
