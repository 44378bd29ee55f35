package faults

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"unitp/internal/netsim"
)

// Fleet-level fault injection extends the substrate from one process to
// a sharded deployment: a FleetPlan schedules primary kills at exact
// commit offsets and partitions or slows specific replication links for
// exact shipping windows. Everything is scheduled, nothing is sampled —
// failover experiments need the kill to land on a known request, in a
// known phase of its commit, every run.
//
// Two kill phases bracket the replication shipping point:
//
//   - before-ship: the primary dies after its local WAL sync but before
//     the batch reaches any follower. The promoted follower has never
//     seen the batch; the clients (unanswered) retry and their requests
//     execute fresh, exactly once.
//   - after-ship: the primary dies after every follower acknowledged
//     the batch but before any response is released. The promoted
//     follower holds the batch; the clients' retries hit the replicated
//     replay caches and applied set, again exactly once.
//
// Both phases kill between "durable somewhere" and "answered", which is
// precisely the window where lost-or-doubled bugs live.

// ErrKilled is the error a scheduled process kill surfaces through the
// committer: the batch's requests were never answered, exactly as if
// the process had been SIGKILLed before writing its responses.
var ErrKilled = errors.New("faults: process killed by fleet plan")

// KillPhase places a scheduled kill relative to replication shipping.
type KillPhase int

// Kill phases.
const (
	// KillBeforeShip kills after the local WAL sync, before shipping.
	KillBeforeShip KillPhase = iota + 1

	// KillAfterShip kills after every follower acked, before responses.
	KillAfterShip
)

// String names the phase for tables.
func (k KillPhase) String() string {
	switch k {
	case KillBeforeShip:
		return "before-ship"
	case KillAfterShip:
		return "after-ship"
	default:
		return fmt.Sprintf("phase(%d)", int(k))
	}
}

// fleetKill is one scheduled primary kill.
type fleetKill struct {
	phase       KillPhase
	afterGroups uint64 // fires when the shard's committed groups reach this
	fired       bool
}

// linkWindow is one scheduled disturbance of a replication link,
// expressed in shipping attempts (1-based: fromShip=1 disturbs the
// first ship on that link).
type linkWindow struct {
	follower int
	fromShip uint64
	toShip   uint64 // inclusive
	delay    time.Duration
	drop     bool
}

// FleetStats counts what a plan actually did, for experiment tables.
type FleetStats struct {
	// Kills counts primaries killed, by phase name.
	Kills map[string]int

	// DroppedShips counts replication ships refused by a partition.
	DroppedShips int

	// DelayedShips counts replication ships slowed by a slow-follower
	// window.
	DelayedShips int
}

// FleetPlan schedules fleet-level faults: primary kills by commit
// offset and per-link partitions/slowdowns by shipping attempt. Safe
// for concurrent use; a fleet's shards consult it from their commit
// hooks and replication links.
type FleetPlan struct {
	mu        sync.Mutex
	kills     map[int][]*fleetKill // shard -> scheduled kills
	windows   map[int][]linkWindow // shard -> link disturbances
	committed map[int]uint64       // shard -> groups committed so far
	ships     map[[2]int]uint64    // (shard, follower) -> shipping attempts so far
	stats     FleetStats
}

// NewFleetPlan returns an empty plan (no faults).
func NewFleetPlan() *FleetPlan {
	return &FleetPlan{
		kills:     make(map[int][]*fleetKill),
		windows:   make(map[int][]linkWindow),
		committed: make(map[int]uint64),
		ships:     make(map[[2]int]uint64),
		stats:     FleetStats{Kills: make(map[string]int)},
	}
}

// KillPrimary schedules shard's primary to die in the given phase of
// the commit that brings its total committed groups to afterGroups or
// beyond (the batch straddling the threshold carries the kill).
func (p *FleetPlan) KillPrimary(shard int, phase KillPhase, afterGroups uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kills[shard] = append(p.kills[shard], &fleetKill{phase: phase, afterGroups: afterGroups})
}

// PartitionLink drops shipping attempts [fromShip, toShip] (1-based,
// inclusive) on shard's replication link to the follower whose member
// index is follower — a replication partition window.
func (p *FleetPlan) PartitionLink(shard, follower int, fromShip, toShip uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.windows[shard] = append(p.windows[shard],
		linkWindow{follower: follower, fromShip: fromShip, toShip: toShip, drop: true})
}

// SlowLink delays shipping attempts [fromShip, toShip] (1-based,
// inclusive) on shard's link to the follower whose member index is
// follower by delay each — a slow follower window.
func (p *FleetPlan) SlowLink(shard, follower int, fromShip, toShip uint64, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.windows[shard] = append(p.windows[shard],
		linkWindow{follower: follower, fromShip: fromShip, toShip: toShip, delay: delay})
}

// OnCommit advances shard's committed-group counter by batchGroups and
// reports whether a kill is scheduled for this commit in the given
// phase. The committer calls it twice per batch — once per phase — and
// only the first call (before-ship) advances the counter.
func (p *FleetPlan) OnCommit(shard int, phase KillPhase, batchGroups int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if phase == KillBeforeShip {
		p.committed[shard] += uint64(batchGroups)
	}
	total := p.committed[shard]
	for _, k := range p.kills[shard] {
		if !k.fired && k.phase == phase && total >= k.afterGroups {
			k.fired = true
			p.stats.Kills[phase.String()]++
			return true
		}
	}
	return false
}

// Killer adapts the plan's kills of shard's primary into a commit-hook
// kill check (fleet.NodeConfig.Kill): in each phase of every batch it
// consults OnCommit and, when a kill fires, returns ErrKilled so the
// provider dies without answering the batch. A nil plan kills nothing.
func (p *FleetPlan) Killer(shard int) func(phase KillPhase, from, to uint64) error {
	if p == nil {
		return nil
	}
	return func(phase KillPhase, from, to uint64) error {
		if p.OnCommit(shard, phase, int(to-from)) {
			return fmt.Errorf("%w: shard %d primary %s, batch [%d, %d)", ErrKilled, shard, phase, from, to)
		}
		return nil
	}
}

// OnShip advances the shipping-attempt counter for shard's link to
// follower and reports the scheduled disturbance for this attempt:
// drop (partition) and/or delay (slow follower).
func (p *FleetPlan) OnShip(shard, follower int) (drop bool, delay time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := [2]int{shard, follower}
	p.ships[key]++
	attempt := p.ships[key]
	for _, w := range p.windows[shard] {
		if w.follower != follower || attempt < w.fromShip || attempt > w.toShip {
			continue
		}
		if w.drop {
			p.stats.DroppedShips++
			drop = true
		}
		if w.delay > 0 {
			p.stats.DelayedShips++
			delay += w.delay
		}
	}
	return drop, delay
}

// LinkInjector adapts the plan into a netsim.Injector for shard's
// replication link to follower, so replication pipes inject partitions
// and slowdowns through the same transport hook client links use. Only
// the request direction is disturbed (a dropped request and a dropped
// ack are indistinguishable to the shipping primary anyway — both
// surface as a failed round trip).
func (p *FleetPlan) LinkInjector(shard, follower int) netsim.Injector {
	return &fleetLinkInjector{plan: p, shard: shard, follower: follower}
}

// fleetLinkInjector is the per-link netsim.Injector adapter.
type fleetLinkInjector struct {
	plan     *FleetPlan
	shard    int
	follower int
}

// Inject implements netsim.Injector.
func (inj *fleetLinkInjector) Inject(dir netsim.Direction, payload []byte) ([]byte, netsim.Action) {
	if dir != netsim.DirRequest {
		return payload, netsim.Action{}
	}
	drop, delay := inj.plan.OnShip(inj.shard, inj.follower)
	return payload, netsim.Action{Drop: drop, Delay: delay}
}

// Stats returns a copy of the plan's activity counters.
func (p *FleetPlan) Stats() FleetStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := FleetStats{
		Kills:        make(map[string]int, len(p.stats.Kills)),
		DroppedShips: p.stats.DroppedShips,
		DelayedShips: p.stats.DelayedShips,
	}
	for k, v := range p.stats.Kills {
		out.Kills[k] = v
	}
	return out
}

// Summary renders the plan's activity for experiment output, in a
// deterministic order.
func (s FleetStats) Summary() string {
	parts := make([]string, 0, len(s.Kills)+2)
	names := make([]string, 0, len(s.Kills))
	for name := range s.Kills {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("kills[%s]=%d", name, s.Kills[name]))
	}
	parts = append(parts, fmt.Sprintf("dropped-ships=%d", s.DroppedShips))
	parts = append(parts, fmt.Sprintf("delayed-ships=%d", s.DelayedShips))
	return strings.Join(parts, " ")
}
