package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"unitp/internal/obs"
)

// File naming: each generation g owns a snapshot "snap-<g>.snap" and a
// log "wal-<g>.log" of records appended after that snapshot was taken.
// A new snapshot is written as "snap-<g>.tmp", synced, and renamed into
// place before the old generation's files are removed, so at every
// instant at least one complete (snapshot, WAL) pair is on disk.
// Recovery scans for the highest-numbered valid snapshot and replays
// its WAL; stray *.tmp files and stale generations are deleted (see
// Open for when it refuses).

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
	walPrefix  = "wal-"
	walSuffix  = ".log"
)

func snapName(gen uint64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, gen, snapSuffix) }
func walName(gen uint64) string  { return fmt.Sprintf("%s%016d%s", walPrefix, gen, walSuffix) }

// parseGen extracts the generation number from a snapshot or WAL file
// name, returning ok=false for anything that does not match the scheme.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// ErrNoSnapshot is returned by Append/Sync before the first
// WriteSnapshot: a store only becomes writable once it has a snapshot
// to anchor the WAL's generation.
var ErrNoSnapshot = errors.New("store: no snapshot written yet")

// ErrNoFallback is returned by Open when the newest snapshot is invalid
// and no older generation can stand in for it without losing records.
var ErrNoFallback = errors.New("store: no safe fallback generation")

// ErrDeltaSnapshot is returned by Open when the generation it would
// recover is a delta snapshot, which older versions of this store wrote
// over a retained full one and this version does not read. Open then
// removes nothing: open the store once with the version that wrote it
// and shut that down cleanly, which writes a full snapshot.
var ErrDeltaSnapshot = errors.New("store: delta snapshot (envelope version 2) is no longer supported")

// Stats counts store activity since Open.
type Stats struct {
	// Appends is the number of WAL records appended.
	Appends uint64

	// AppendedBytes is the framed byte volume appended to the WAL.
	AppendedBytes uint64

	// Syncs counts WAL fsyncs.
	Syncs uint64

	// Snapshots counts snapshots written (generation rotations).
	Snapshots uint64

	// RecoveredRecords is the number of valid WAL records found at Open.
	RecoveredRecords uint64

	// RecoveredBytes is the valid WAL prefix length found at Open.
	RecoveredBytes uint64

	// TruncatedBytes counts torn-tail / trailing-garbage bytes discarded
	// at Open.
	TruncatedBytes uint64

	// SkippedSnapshots counts snapshot files present at Open that failed
	// validation and were ignored.
	SkippedSnapshots uint64

	// Generation is the store's current generation number.
	Generation uint64

	// SnapshotBytes is the payload size of the current generation's
	// snapshot.
	SnapshotBytes uint64

	// WALBytes is the framed byte volume of the current generation's
	// WAL: the valid prefix recovered at Open, plus what was appended
	// since. A rotation empties it.
	WALBytes uint64
}

// Store is a WAL + snapshot pair over a Backend. One Store owns the
// backend's namespace; after a simulated crash the Store is dead and a
// new one must be opened over the recovered backend.
type Store struct {
	mu      sync.Mutex
	backend Backend
	stats   Stats
	metrics *obs.Registry

	// lastSnap is the wall-clock instant of the last WriteSnapshot,
	// feeding the admin plane's last-snapshot-age readiness check.
	lastSnap time.Time

	// recovered state from Open, consumed by the caller's restore pass.
	snapshot []byte
	records  [][]byte

	gen uint64
	wal File // nil until the first WriteSnapshot
}

// SetMetrics attaches a live registry: append/sync/snapshot latency
// histograms, byte counters, and the generation gauge. Latencies are
// wall-clock (the real cost of the backend), never the simulation clock,
// so attaching metrics cannot perturb deterministic experiments.
func (s *Store) SetMetrics(m *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}

// LastSnapshotTime returns the wall-clock instant of the most recent
// WriteSnapshot (zero before the first).
func (s *Store) LastSnapshotTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnap
}

// Open scans the backend, selects the newest valid snapshot, and loads
// the valid prefix of its WAL. On a virgin backend Snapshot() returns
// nil and the caller bootstraps with WriteSnapshot. Stray temp files
// and stale generations are removed. An invalid newest snapshot falls
// back to an older generation only when that generation's WAL is
// present and no newer WAL exists; otherwise Open fails with
// ErrNoFallback and removes nothing. A delta snapshot where Open would
// recover fails it with ErrDeltaSnapshot, also removing nothing.
func Open(b Backend) (*Store, error) {
	names, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}

	s := &Store{backend: b}

	// Collect candidate snapshots, newest generation first.
	var snapGens []uint64
	var tmps []string
	walGens := make(map[uint64]bool)
	var newestWAL uint64
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// Leftover from a crash mid-snapshot: never valid.
			tmps = append(tmps, name)
			continue
		}
		if gen, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			snapGens = append(snapGens, gen)
		} else if gen, ok := parseGen(name, walPrefix, walSuffix); ok {
			walGens[gen] = true
			newestWAL = max(newestWAL, gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	chosen := false
	for _, gen := range snapGens {
		state, err := s.readSnapshot(gen)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		if state == nil {
			s.stats.SkippedSnapshots++
			continue
		}
		s.gen, s.snapshot = gen, state
		chosen = true
		break
	}

	// A rotation removes its predecessor's WAL, so an older generation
	// without its WAL, or with a newer WAL beside it, or no generation
	// at all, would silently lose records: refuse and keep every file.
	if s.stats.SkippedSnapshots > 0 && (!chosen || !walGens[s.gen] || newestWAL > s.gen) {
		return nil, fmt.Errorf("store: open: snapshot %d is invalid: %w", snapGens[0], ErrNoFallback)
	}
	for _, name := range tmps {
		if err := b.Remove(name); err != nil {
			return nil, fmt.Errorf("store: open: remove %s: %w", name, err)
		}
	}

	if chosen {
		s.stats.Generation = s.gen
		s.stats.SnapshotBytes = uint64(len(s.snapshot))
		if walData, err := s.backend.ReadFile(walName(s.gen)); err == nil {
			scan := scanWAL(walData)
			s.records = scan.records
			s.stats.RecoveredRecords = uint64(len(scan.records))
			s.stats.RecoveredBytes = uint64(scan.validBytes)
			s.stats.TruncatedBytes = uint64(scan.truncatedBytes)
			s.stats.WALBytes = s.stats.RecoveredBytes
		} else if !errors.Is(err, ErrNotExist) {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}

	// Drop every generation other than the chosen one. The chosen WAL
	// itself is kept untouched — the caller replays it and
	// then rotates via WriteSnapshot, which is how torn tails get
	// discarded for good.
	for _, gen := range snapGens {
		if chosen && gen == s.gen {
			continue
		}
		if err := b.Remove(snapName(gen)); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	for gen := range walGens {
		if chosen && gen == s.gen {
			continue
		}
		if err := b.Remove(walName(gen)); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}

	return s, nil
}

// Discard removes every snapshot, WAL and snapshot temp file from b,
// for a caller about to write a whole new state that needs nothing Open
// would recover (a follower re-seeded by its primary). Files outside
// the store's naming scheme are left alone.
func Discard(b Backend) error {
	names, err := b.List()
	if err != nil {
		return fmt.Errorf("store: discard: %w", err)
	}
	for _, name := range names {
		_, snap := parseGen(name, snapPrefix, snapSuffix)
		_, tmp := parseGen(name, snapPrefix, snapSuffix+tmpSuffix)
		_, wal := parseGen(name, walPrefix, walSuffix)
		if !snap && !tmp && !wal {
			continue
		}
		if err := b.Remove(name); err != nil {
			return fmt.Errorf("store: discard: %w", err)
		}
	}
	return nil
}

// readSnapshot reads and validates generation gen's snapshot. A missing
// or invalid file, or one claiming another generation, yields a nil
// state and no error; a backend failure and a delta snapshot are
// errors.
func (s *Store) readSnapshot(gen uint64) ([]byte, error) {
	data, err := s.backend.ReadFile(snapName(gen))
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	got, state, err := decodeSnapshot(data)
	if errors.Is(err, ErrDeltaSnapshot) {
		return nil, fmt.Errorf("snapshot %d: %w", gen, err)
	}
	if err != nil || got != gen {
		return nil, nil
	}
	return state, nil
}

// Snapshot returns the state blob recovered at Open (nil on a virgin
// backend).
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot
}

// Records returns the WAL records recovered at Open, in append order.
func (s *Store) Records() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Generation returns the current generation number.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// WriteSnapshot persists state as a new generation and rotates the WAL:
// temp-write + sync + rename, then a fresh empty WAL for the new
// generation, then removal of the previous generation's files. After it
// returns, state is durable and the WAL is empty.
func (s *Store) WriteSnapshot(state []byte) error {
	frame := make([]byte, SnapshotHeaderLen, SnapshotHeaderLen+len(state)+snapshotCRCLen)
	return s.WriteSnapshotFrame(append(frame, state...))
}

// WriteSnapshotFrame is WriteSnapshot for a state already encoded after
// SnapshotHeaderLen reserved bytes of frame, optionally continued in
// further parts: the state is frame's tail followed by each part of
// more, in order. The store fills in the header and writes each part
// with one File.Write, so a large state is never copied. The CRC is
// chained over every part on a second goroutine while the parts before
// the last are written, then appended to the last part in place before
// it is written; 4 bytes of spare capacity in the last part avoid
// reallocating for the CRC. The store owns frame and the parts until the
// call returns, and keeps none of them.
func (s *Store) WriteSnapshotFrame(frame []byte, more ...[]byte) error {
	if len(frame) < SnapshotHeaderLen {
		return fmt.Errorf("store: snapshot frame of %d bytes has no header room", len(frame))
	}
	size := len(frame) - SnapshotHeaderLen
	for _, part := range more {
		size += len(part)
	}
	if uint64(size) > math.MaxUint32 {
		return fmt.Errorf("store: snapshot state of %d bytes overflows its length field", size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()

	prevGen, hadPrev := s.gen, s.wal != nil || s.snapshot != nil || s.stats.Snapshots > 0
	newGen := s.gen + 1

	tmp := snapName(newGen) + tmpSuffix
	f, err := s.backend.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := writeSnapshotParts(f, newGen, append([][]byte{frame}, more...)); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := s.backend.Rename(tmp, snapName(newGen)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	// The new snapshot is durable; open the new generation's WAL.
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	wal, err := s.backend.Create(walName(newGen))
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	s.gen = newGen
	s.wal = wal
	s.stats.Snapshots++
	s.stats.Generation = newGen
	s.stats.SnapshotBytes = uint64(size)
	s.stats.WALBytes = 0
	s.snapshot = nil
	s.records = nil
	s.lastSnap = time.Now()
	s.metrics.Counter("store.snapshots").Inc()
	s.metrics.Gauge("store.generation").Set(int64(newGen))
	s.metrics.Observe("store.snapshot_latency", time.Since(start))

	// Retire the previous generation. Failures here would leave stale
	// files that the next Open cleans up, but under the simulated crash
	// model a failure means the whole process is dead anyway.
	if hadPrev {
		if err := s.backend.Remove(snapName(prevGen)); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
		if err := s.backend.Remove(walName(prevGen)); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
	}
	return nil
}

// Append frames rec onto the current WAL. The record is not durable
// until Sync returns.
func (s *Store) Append(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoSnapshot
	}
	start := time.Now()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.stats.Appends++
	s.stats.AppendedBytes += uint64(len(frame))
	s.stats.WALBytes += uint64(len(frame))
	s.metrics.Counter("store.appends").Inc()
	s.metrics.Counter("store.appended_bytes").Add(int64(len(frame)))
	s.metrics.Observe("store.append_latency", time.Since(start))
	return nil
}

// AppendAll frames every record onto the current WAL in one write — the
// group-commit write set. Record boundaries survive (each record keeps
// its own frame and checksum, so recovery and torn-tail semantics are
// identical to len(recs) Appends); only the syscall count changes. The
// records are not durable until Sync returns.
func (s *Store) AppendAll(recs [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoSnapshot
	}
	start := time.Now()
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.stats.Appends += uint64(len(recs))
	s.stats.AppendedBytes += uint64(len(buf))
	s.stats.WALBytes += uint64(len(buf))
	s.metrics.Counter("store.appends").Add(int64(len(recs)))
	s.metrics.Counter("store.appended_bytes").Add(int64(len(buf)))
	s.metrics.Observe("store.append_latency", time.Since(start))
	return nil
}

// Sync makes every appended record durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoSnapshot
	}
	start := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.stats.Syncs++
	s.metrics.Counter("store.syncs").Inc()
	s.metrics.Observe("store.sync_latency", time.Since(start))
	return nil
}

// Segment is one complete generation read back from the backend: the
// snapshot state plus every valid WAL record appended after it. It is
// the unit a replication bootstrap ships to a follower — applying State
// then Records reproduces exactly the durable state of this store.
type Segment struct {
	// Generation is the segment's generation number.
	Generation uint64

	// State is the snapshot payload the generation started from.
	State []byte

	// Records are the WAL records of this generation, in append order.
	Records [][]byte
}

// ReadSegment re-reads the current generation's snapshot and the valid
// prefix of its WAL from the backend. Call it quiesced (no append/sync
// in flight) — typically right after Open+WriteSnapshot or with the
// owning provider's committer idle — so the WAL read is a consistent
// prefix of committed groups.
func (s *Store) ReadSegment() (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil && s.stats.Snapshots == 0 {
		return Segment{}, ErrNoSnapshot
	}
	data, err := s.backend.ReadFile(snapName(s.gen))
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	gen, state, err := decodeSnapshot(data)
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	if gen != s.gen {
		return Segment{}, fmt.Errorf("store: read segment: snapshot generation %d, store at %d", gen, s.gen)
	}
	seg := Segment{Generation: s.gen, State: state}
	walData, err := s.backend.ReadFile(walName(s.gen))
	if err == nil {
		seg.Records = scanWAL(walData).records
	} else if !errors.Is(err, ErrNotExist) {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	return seg, nil
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases the WAL handle without syncing. Call Sync first for a
// clean shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
