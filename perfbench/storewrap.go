package main

import (
	"strings"
	"sync/atomic"
	"time"

	"unitp/internal/store"
)

// ioCounts is one backend's store traffic. The counts are kept in every
// run (a few atomic adds per group commit); spans only when tracing.
type ioCounts struct {
	walBytes, walSyncs   atomic.Int64
	snapshots, snapBytes atomic.Int64
}

// ioTotals is a plain copy of ioCounts, for window deltas.
type ioTotals struct {
	walBytes, walSyncs, snapshots, snapBytes int64
}

func (c *ioCounts) load() ioTotals {
	return ioTotals{c.walBytes.Load(), c.walSyncs.Load(), c.snapshots.Load(), c.snapBytes.Load()}
}

func (a ioTotals) plus(b ioTotals) ioTotals {
	return ioTotals{a.walBytes + b.walBytes, a.walSyncs + b.walSyncs,
		a.snapshots + b.snapshots, a.snapBytes + b.snapBytes}
}

func (a ioTotals) minus(b ioTotals) ioTotals {
	return ioTotals{a.walBytes - b.walBytes, a.walSyncs - b.walSyncs,
		a.snapshots - b.snapshots, a.snapBytes - b.snapBytes}
}

// roleGroup folds a backend role onto the group the per-layer table
// reports: the single provider and fleet primaries are "primary", every
// "follower-<i>" is "follower"; the fleet manifest keeps its own name.
func roleGroup(role string) string {
	if strings.HasPrefix(role, "follower") {
		return "follower"
	}
	return role
}

func newTimedBackend(group string, track int, tr *tracer) *timedBackend {
	return &timedBackend{memfdBackend: newMemfdBackend(), group: group, track: track, tr: tr}
}

// timedBackend wraps a memfdBackend, counting and timing WAL writes and
// syncs and whole snapshot rotations. Store calls run on the provider's
// commit goroutine, so these spans carry no transaction ID; they are
// attributed to the backend's role group.
type timedBackend struct {
	*memfdBackend
	group  string
	track  int
	counts ioCounts
	tr     *tracer

	// snapStart is when the snapshot being written was created. The
	// store writes one snapshot at a time under its own lock, which
	// orders every access.
	snapStart time.Time
}

// Create opens a file and notes what it is for: a WAL generation
// ("wal-*") or a snapshot being written ("snap-*.tmp", renamed into
// place once durable).
func (b *timedBackend) Create(name string) (store.File, error) {
	start := time.Now()
	f, err := b.memfdBackend.Create(name)
	if err != nil {
		return nil, err
	}
	snap := strings.HasPrefix(name, "snap-")
	if snap {
		b.snapStart = start
	}
	return &timedFile{File: f, b: b, wal: strings.HasPrefix(name, "wal-"), snap: snap}, nil
}

// Rename completes a snapshot rotation: the temp file becomes the
// generation's snapshot.
func (b *timedBackend) Rename(oldname, newname string) error {
	err := b.memfdBackend.Rename(oldname, newname)
	if err == nil && strings.HasPrefix(oldname, "snap-") {
		b.counts.snapshots.Add(1)
		b.tr.record("store.snapshot", 0, 0, b.track, b.group, b.snapStart, time.Now())
	}
	return err
}

// timedFile counts and times one open file's writes and syncs.
type timedFile struct {
	store.File
	b         *timedBackend
	wal, snap bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	switch {
	case f.wal:
		f.b.counts.walBytes.Add(int64(n))
		f.b.tr.record("store.wal_write", 0, 0, f.b.track, f.b.group, start, time.Now())
	case f.snap:
		f.b.counts.snapBytes.Add(int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	if f.wal {
		f.b.counts.walSyncs.Add(1)
		f.b.tr.record("store.wal_sync", 0, 0, f.b.track, f.b.group, start, time.Now())
	}
	return err
}
