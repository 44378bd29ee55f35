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
// A snapshot is full, or a delta that holds only what changed since a
// retained full snapshot, its base, which it names with its CRC. A new
// snapshot of either kind is written as "snap-<g>.tmp", synced, and
// renamed into place before the old generation's files are removed, so
// at every instant at least one complete (snapshot, WAL) pair is on
// disk, with the base of a delta. A full rotation retires the previous
// generation and its base; a delta rotation retires the previous
// generation only, unless that is its base. Recovery scans for the
// highest-numbered valid snapshot — a delta is valid only with its base
// present and matching — and replays its WAL; stray *.tmp files and
// every other generation are deleted (see Open for when it refuses).

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

// ErrDeltaSegment is returned by ReadSegment when the current
// generation's snapshot is a delta: a segment ships a full state.
var ErrDeltaSegment = errors.New("store: read segment: current snapshot is a delta")

// Stats counts store activity since Open.
type Stats struct {
	// Appends is the number of WAL records appended.
	Appends uint64

	// AppendedBytes is the framed byte volume appended to the WAL.
	AppendedBytes uint64

	// Syncs counts WAL fsyncs.
	Syncs uint64

	// Snapshots counts snapshots written (generation rotations), full
	// and delta.
	Snapshots uint64

	// DeltaSnapshots counts the snapshots written as deltas.
	DeltaSnapshots uint64

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

	// BaseGeneration is the generation of the full snapshot recovery
	// would start from: the current one when it is full, else the base
	// its delta applies to. 0 before the first snapshot.
	BaseGeneration uint64
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

	// recovered state from Open, consumed by the caller's restore pass:
	// the base's state, the current generation's delta over it (nil
	// when the generation is full) and the WAL records.
	snapshot []byte
	delta    []byte
	records  [][]byte

	gen     uint64
	base    uint64 // the retained full snapshot's generation; 0 before the first
	baseCRC uint32 // its envelope CRC, which a delta names
	wal     File   // nil until the first WriteSnapshot
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

// Open scans the backend, selects the newest valid snapshot (a delta
// with its base), and loads the valid prefix of its WAL. On a virgin
// backend Snapshot() returns nil and the caller bootstraps with
// WriteSnapshot. Stray temp files and stale generations are removed.
// An invalid newest snapshot falls back to an older generation only
// when that generation's WAL is present and no newer WAL exists;
// otherwise Open fails with ErrNoFallback and removes nothing.
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
		env, crc, state, err := s.readSnapshot(gen)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		if state == nil {
			s.stats.SkippedSnapshots++
			continue
		}
		if !env.delta() {
			s.gen, s.base, s.baseCRC, s.snapshot = gen, gen, crc, state
			chosen = true
			break
		}
		// A delta is only as good as its base: missing, damaged or not
		// the file it names, and the delta is refused.
		baseEnv, baseCRC, base, err := s.readSnapshot(env.base)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		if base == nil || baseEnv.delta() || baseCRC != env.baseCRC {
			s.stats.SkippedSnapshots++
			continue
		}
		s.gen, s.base, s.baseCRC, s.snapshot, s.delta = gen, env.base, baseCRC, base, state
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
		s.stats.BaseGeneration = s.base
		if walData, err := s.backend.ReadFile(walName(s.gen)); err == nil {
			scan := scanWAL(walData)
			s.records = scan.records
			s.stats.RecoveredRecords = uint64(len(scan.records))
			s.stats.RecoveredBytes = uint64(scan.validBytes)
			s.stats.TruncatedBytes = uint64(scan.truncatedBytes)
		} else if !errors.Is(err, ErrNotExist) {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}

	// Drop every generation other than the chosen one and its base. The
	// chosen WAL itself is kept untouched — the caller replays it and
	// then rotates via WriteSnapshot, which is how torn tails get
	// discarded for good.
	for _, gen := range snapGens {
		if chosen && (gen == s.gen || gen == s.base) {
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
// state and no error; only a backend failure is an error.
func (s *Store) readSnapshot(gen uint64) (envelope, uint32, []byte, error) {
	data, err := s.backend.ReadFile(snapName(gen))
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return envelope{}, 0, nil, nil
		}
		return envelope{}, 0, nil, err
	}
	env, crc, state, err := decodeSnapshot(data)
	if err != nil || env.gen != gen {
		return envelope{}, 0, nil, nil
	}
	return env, crc, state, nil
}

// Snapshot returns the full state blob recovered at Open: the base,
// when the recovered generation is a delta (nil on a virgin backend).
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot
}

// Delta returns the delta recovered at Open, to apply over Snapshot
// before the records (nil when the recovered generation is full).
func (s *Store) Delta() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delta
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
// generation, then removal of the previous generation's files and its
// base. After it returns, state is durable, it is the base later
// deltas apply to, and the WAL is empty.
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
	return s.rotate(false, frame, more)
}

// WriteDeltaFrame is WriteSnapshotFrame for a delta over the retained
// base, encoded after DeltaHeaderLen reserved bytes of frame: the base
// is kept, and what the delta means only the caller knows — recovery
// hands it back beside the base (Delta). It fails before the first full
// snapshot.
func (s *Store) WriteDeltaFrame(frame []byte, more ...[]byte) error {
	return s.rotate(true, frame, more)
}

// rotate writes a full or delta snapshot as the next generation and
// retires what recovery no longer needs.
func (s *Store) rotate(delta bool, frame []byte, more [][]byte) error {
	hdr := SnapshotHeaderLen
	if delta {
		hdr = DeltaHeaderLen
	}
	if len(frame) < hdr {
		return fmt.Errorf("store: snapshot frame of %d bytes has no header room", len(frame))
	}
	size := len(frame) - hdr
	for _, part := range more {
		size += len(part)
	}
	if uint64(size) > math.MaxUint32 {
		return fmt.Errorf("store: snapshot state of %d bytes overflows its length field", size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if delta && s.base == 0 {
		return errors.New("store: delta snapshot with no base")
	}
	start := time.Now()

	prevGen, prevBase := s.gen, s.base
	hadPrev := s.wal != nil || s.snapshot != nil || s.stats.Snapshots > 0
	env := envelope{gen: s.gen + 1}
	if delta {
		env.base, env.baseCRC = s.base, s.baseCRC
	}

	tmp := snapName(env.gen) + tmpSuffix
	f, err := s.backend.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	crc, err := writeSnapshotParts(f, env, append([][]byte{frame}, more...))
	if err != nil {
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
	if err := s.backend.Rename(tmp, snapName(env.gen)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	// The new snapshot is durable; open the new generation's WAL.
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	wal, err := s.backend.Create(walName(env.gen))
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	s.gen = env.gen
	s.wal = wal
	if !delta {
		s.base, s.baseCRC = env.gen, crc
	}
	s.stats.Snapshots++
	s.stats.Generation = env.gen
	s.stats.BaseGeneration = s.base
	s.snapshot, s.delta = nil, nil
	s.records = nil
	s.lastSnap = time.Now()
	s.metrics.Gauge("store.generation").Set(int64(env.gen))
	if delta {
		s.stats.DeltaSnapshots++
		s.metrics.Counter("store.delta_snapshots").Inc()
		s.metrics.Observe("store.delta_snapshot_latency", time.Since(start))
	} else {
		s.metrics.Counter("store.snapshots").Inc()
		s.metrics.Observe("store.snapshot_latency", time.Since(start))
	}

	// Retire the previous generation, and after a full rotation its
	// base. Failures here would leave stale files that the next Open
	// cleans up, but under the simulated crash model a failure means the
	// whole process is dead anyway.
	if hadPrev {
		if prevGen != s.base {
			if err := s.backend.Remove(snapName(prevGen)); err != nil {
				return fmt.Errorf("store: snapshot: %w", err)
			}
		}
		if err := s.backend.Remove(walName(prevGen)); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
		if !delta && prevBase != 0 && prevBase != prevGen {
			if err := s.backend.Remove(snapName(prevBase)); err != nil {
				return fmt.Errorf("store: snapshot: %w", err)
			}
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
// prefix of its WAL from the backend. The generation must be full: a
// segment of a delta generation fails with ErrDeltaSegment, and the
// caller writes a full snapshot first. Call it quiesced (no append/sync
// in flight) — typically right after Open+WriteSnapshot or with the
// owning provider's committer idle — so the WAL read is a consistent
// prefix of committed groups.
func (s *Store) ReadSegment() (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil && s.stats.Snapshots == 0 {
		return Segment{}, ErrNoSnapshot
	}
	if s.base != s.gen {
		return Segment{}, fmt.Errorf("%w: generation %d is a delta over %d", ErrDeltaSegment, s.gen, s.base)
	}
	data, err := s.backend.ReadFile(snapName(s.gen))
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	env, _, state, err := decodeSnapshot(data)
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	if env.gen != s.gen || env.delta() {
		return Segment{}, fmt.Errorf("store: read segment: snapshot generation %d, store at full generation %d", env.gen, s.gen)
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
