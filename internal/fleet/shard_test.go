package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"unitp/internal/core"
	"unitp/internal/faults"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// localMember is one in-process shard member's config: the lean
// auto-accept provider (every submitted transaction is below the
// confirmation threshold, so a single frame exercises route → ledger →
// group commit → replication end to end), over in-memory backends. A
// non-nil backends map keys them by member and role, so a second
// LocalNet over the same map simulates a process restart.
func localMember(shard, m int, plan *faults.FleetPlan, metrics *obs.Registry, backends map[string]*store.MemBackend) NodeConfig {
	life := func(epoch uint64) core.ProviderConfig {
		return core.ProviderConfig{
			Name:                  fmt.Sprintf("test-shard%d", shard),
			Clock:                 sim.NewVirtualClock(),
			Random:                sim.NewRand(uint64(shard)<<16 | epoch),
			ConfirmThresholdCents: 1_000_000,
			Epoch:                 epoch,
		}
	}
	return NodeConfig{
		NewBackend: func(role string) (store.Backend, error) {
			if backends == nil {
				return store.NewMemBackend(), nil
			}
			key := fmt.Sprintf("%d/%s", m, role)
			if backends[key] == nil {
				backends[key] = store.NewMemBackend()
			}
			return backends[key], nil
		},
		Build: func(epoch uint64) (*core.Provider, error) {
			p := core.NewProvider(life(epoch))
			if err := p.Ledger().CreateAccount("payer", 1_000_000); err != nil {
				return nil, err
			}
			return p, p.Ledger().CreateAccount("sink", 0)
		},
		Restore: func(epoch uint64, st *store.Store) (*core.Provider, error) {
			return core.RestoreProvider(life(epoch), st)
		},
		Kill:    plan.Killer(shard),
		Metrics: metrics,
	}
}

// startLocalShard runs one in-process shard on ln.
func startLocalShard(t *testing.T, ln *LocalNet, shard, followers int, plan *faults.FleetPlan,
	metrics *obs.Registry, backends map[string]*store.MemBackend) *ShardHandle {
	t.Helper()
	h, err := ln.StartShard(shard, followers, func(m int) NodeConfig {
		return localMember(shard, m, plan, metrics, backends)
	}, ShardHandleConfig{Metrics: metrics})
	if err != nil {
		t.Fatalf("StartShard: %v", err)
	}
	return h
}

// testShard starts one in-process shard on a fresh LocalNet.
func testShard(t *testing.T, followers int, plan *faults.FleetPlan, metrics *obs.Registry) *ShardHandle {
	t.Helper()
	return startLocalShard(t, &LocalNet{}, 0, followers, plan, metrics, nil)
}

func submitFrame(t *testing.T, id string) []byte {
	t.Helper()
	frame, err := core.EncodeMessage(&core.SubmitTx{Tx: &core.Transaction{
		ID: id, From: "payer", To: "sink", AmountCents: 1, Currency: "EUR",
	}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame
}

func expectAccepted(t *testing.T, resp []byte, err error) *core.Outcome {
	t.Helper()
	if err != nil {
		t.Fatalf("handle: %v", err)
	}
	msg, err := core.DecodeMessage(resp)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	out, ok := msg.(*core.Outcome)
	if !ok || !out.Accepted {
		t.Fatalf("outcome = %+v (%T)", msg, msg)
	}
	return out
}

// Every committed group must reach every follower before the client
// sees an answer: after N accepted transactions the replication
// frontier of both followers is N.
func TestShardReplicatesEveryCommit(t *testing.T) {
	s := testShard(t, 2, nil, nil)
	for i := 0; i < 3; i++ {
		resp, err := s.Handle(submitFrame(t, fmt.Sprintf("tx-%d", i)))
		expectAccepted(t, resp, err)
	}
	applied := s.FollowerApplied()
	if len(applied) != 2 {
		t.Fatalf("%d followers, want 2", len(applied))
	}
	for i, a := range applied {
		if a != 3 {
			t.Errorf("follower %d applied %d of 3 groups", i, a)
		}
	}
}

// The exactly-once heart of the design, in both kill phases. A client
// whose request died mid-commit retransmits the same transaction ID to
// the promoted follower:
//
//   - killed BEFORE shipping, the follower never saw the group, so the
//     retry executes fresh — once;
//   - killed AFTER shipping, the follower holds the group, so the
//     retry is recognized as already executed — still once.
func TestShardFailoverExactlyOnceBothPhases(t *testing.T) {
	for _, phase := range []faults.KillPhase{faults.KillBeforeShip, faults.KillAfterShip} {
		plan := faults.NewFleetPlan()
		plan.KillPrimary(0, phase, 3)
		s := testShard(t, 2, plan, nil)

		for i := 0; i < 2; i++ {
			resp, err := s.Handle(submitFrame(t, fmt.Sprintf("tx-%d", i)))
			expectAccepted(t, resp, err)
		}

		// The third commit carries the kill: the client gets an error,
		// not an answer.
		doomed := submitFrame(t, "tx-straddle")
		epoch := s.Epoch()
		if _, err := s.Handle(doomed); !errors.Is(err, faults.ErrKilled) {
			t.Fatalf("%s: straddling request returned %v, want ErrKilled", phase, err)
		}
		if !FailoverTrigger(fmt.Errorf("wrapped: %w", faults.ErrKilled)) {
			t.Fatalf("%s: ErrKilled must trigger failover", phase)
		}
		if err := s.Failover(epoch); err != nil {
			t.Fatalf("%s: failover: %v", phase, err)
		}
		if s.Epoch() != epoch+1 || s.Failovers() != 1 || s.PrimaryMember() != 1 {
			t.Fatalf("%s: epoch=%d failovers=%d primary=%d after failover",
				phase, s.Epoch(), s.Failovers(), s.PrimaryMember())
		}

		// Retransmit the straddling transaction to the new primary.
		resp, err := s.Handle(doomed)
		expectAccepted(t, resp, err)

		history := s.Primary().Ledger().History()
		seen := map[string]int{}
		for _, tx := range history {
			seen[tx.ID]++
		}
		if seen["tx-straddle"] != 1 {
			t.Fatalf("%s: straddling tx executed %d times, want exactly 1", phase, seen["tx-straddle"])
		}
		if len(history) != 3 {
			t.Fatalf("%s: %d transactions in promoted ledger, want 3", phase, len(history))
		}
		bal, err := s.Primary().Ledger().Balance("payer")
		if err != nil || bal != 1_000_000-3 {
			t.Fatalf("%s: payer balance %d (err %v), want %d", phase, bal, err, 1_000_000-3)
		}
		// The deposed primary rejoined as a follower: the promote's own
		// bootstrap demoted it, so the shard still has two replicas,
		// both at the new primary's frontier.
		if applied := s.FollowerApplied(); len(applied) != 2 || applied[0] != applied[1] {
			t.Fatalf("%s: followers after failover = %v, want two in step", phase, applied)
		}
	}
}

// A deposed primary that is still alive — another router promoted past
// it — must be unable to answer anyone: fenced at its own front door
// and demoted to follower, while the handle routes to the new primary.
func TestShardFailoverFencesDeposedPrimary(t *testing.T) {
	ln := &LocalNet{}
	s := startLocalShard(t, ln, 0, 1, nil, nil, nil)
	r := NewRouter([]*ShardHandle{s}, nil)
	resp, err := r.Handle(submitFrame(t, "tx-0"))
	expectAccepted(t, resp, err)

	old := s.Primary()
	if _, err := ln.ctl(0, MemberAddr{Member: 1}, ctlReq{promote: &promoteCmd{
		NewEpoch: 2, Survivors: []PeerAddr{{Member: 0}},
	}}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	_, zombieErr := old.Handle(submitFrame(t, "tx-zombie"))
	if !errors.Is(zombieErr, core.ErrFenced) {
		t.Fatalf("deposed primary answered: %v", zombieErr)
	}
	if !FailoverTrigger(zombieErr) {
		t.Fatal("ErrFenced must trigger failover routing")
	}
	if n := ln.node(0, 0); n.Role() != NodeRoleFollower || n.Demotions() != 1 {
		t.Fatalf("deposed member role %s demotions %d, want a demoted follower", n.Role(), n.Demotions())
	}

	// The router trips over the demoted member and adopts the promoted
	// one without a second promotion.
	resp, err = r.Handle(submitFrame(t, "tx-1"))
	expectAccepted(t, resp, err)
	if s.PrimaryMember() != 1 || s.Epoch() != 2 || s.Failovers() != 0 {
		t.Fatalf("handle at member %d epoch %d failovers %d, want member 1 epoch 2 and no promotion of its own",
			s.PrimaryMember(), s.Epoch(), s.Failovers())
	}
	if applied := s.FollowerApplied(); len(applied) != 1 || applied[0] != 2 {
		t.Fatalf("deposed member as follower applied %v, want [2]", applied)
	}
}

// Failover is idempotent under racing observers: a second caller that
// observed the same dead epoch must no-op, not promote twice.
func TestShardFailoverIdempotent(t *testing.T) {
	s := testShard(t, 2, nil, nil)
	epoch := s.Epoch()
	s.Primary().Kill()
	if err := s.Failover(epoch); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if err := s.Failover(epoch); err != nil {
		t.Fatalf("second failover with stale epoch: %v", err)
	}
	if s.Failovers() != 1 {
		t.Fatalf("%d failovers, want 1 (second observer must no-op)", s.Failovers())
	}
	// A healthy primary at the observed epoch is a blip, not a failure.
	if err := s.Failover(s.Epoch()); err != nil || s.Failovers() != 1 {
		t.Fatalf("failover against a healthy primary: err %v, %d failovers", err, s.Failovers())
	}
}

// A shard whose replicas are exhausted must say so, not promote nothing.
func TestShardFailoverWithoutFollowers(t *testing.T) {
	s := testShard(t, 0, nil, nil)
	s.Primary().Kill()
	if err := s.Failover(s.Epoch()); !errors.Is(err, ErrNoFollower) {
		t.Fatalf("failover with no followers: %v", err)
	}
}

// joinMember starts a member the shard has never had on its own fresh
// backends and registers it on ln, as a restarted or newly provisioned
// process would appear.
func joinMember(t *testing.T, ln *LocalNet, m int) *Node {
	t.Helper()
	cfg := localMember(0, m, nil, nil, nil)
	cfg.Member, cfg.StartRole, cfg.Net = m, NodeRoleFollower, ln
	n, err := ln.join(cfg)
	if err != nil {
		t.Fatalf("join member %d: %v", m, err)
	}
	return n
}

// Adoption restores redundancy after a failover: a follower on a
// never-used member bootstraps from the live primary and then tracks
// new commits.
func TestShardAddFollowerAfterFailover(t *testing.T) {
	ln := &LocalNet{}
	s := startLocalShard(t, ln, 0, 1, nil, nil, nil)
	resp, err := s.Handle(submitFrame(t, "tx-0"))
	expectAccepted(t, resp, err)
	s.Primary().Kill()
	if err := s.Failover(s.Epoch()); err != nil {
		t.Fatalf("failover: %v", err)
	}

	fresh := joinMember(t, ln, 2)
	if _, err := ln.ctl(0, MemberAddr{Member: s.PrimaryMember()}, ctlReq{adopt: &adoptCmd{Member: 2}}); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	resp, err = s.Handle(submitFrame(t, "tx-1"))
	expectAccepted(t, resp, err)
	if st := fresh.Status(); st.Applied != 2 || st.Epoch != 2 {
		t.Fatalf("adopted member at applied %d epoch %d, want 2 and 2", st.Applied, st.Epoch)
	}
}

// A shard rebuilt over backends that already hold state (a process
// restart) must restore its primary from the durable segment instead of
// clobbering it with a freshly seeded provider.
func TestShardRestartRestoresPrimary(t *testing.T) {
	backends := map[string]*store.MemBackend{}
	first := startLocalShard(t, &LocalNet{}, 0, 1, nil, nil, backends)
	for i := 0; i < 3; i++ {
		resp, err := first.Handle(submitFrame(t, fmt.Sprintf("tx-%d", i)))
		expectAccepted(t, resp, err)
	}
	if err := first.Primary().SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := first.Primary().Store().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	second := startLocalShard(t, &LocalNet{}, 0, 1, nil, nil, backends)
	bal, err := second.Primary().Ledger().Balance("payer")
	if err != nil || bal != 1_000_000-3 {
		t.Fatalf("restarted payer balance = %d (err %v), want %d", bal, err, 1_000_000-3)
	}
	if got := len(second.Primary().Ledger().History()); got != 3 {
		t.Fatalf("restarted history has %d txs, want 3", got)
	}
	// The restarted shard keeps working, replication included.
	resp, err := second.Handle(submitFrame(t, "tx-after-restart"))
	expectAccepted(t, resp, err)
	if applied := second.FollowerApplied(); len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("restarted follower applied = %v, want [1]", applied)
	}
}

// The router drives failover transparently: a client pushing frames
// through a fleet whose primary dies mid-stream sees only accepted
// outcomes, the shard's metrics record the promotion, and the failover
// explains itself in one trace session.
func TestRouterFailsOverTransparently(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(8)
	plan := faults.NewFleetPlan()
	plan.KillPrimary(0, faults.KillBeforeShip, 2)
	ln := &LocalNet{}
	h, err := ln.StartShard(0, 1, func(m int) NodeConfig {
		return localMember(0, m, plan, reg, nil)
	}, ShardHandleConfig{Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatalf("StartShard: %v", err)
	}
	r := NewRouter([]*ShardHandle{h}, reg)

	for i := 0; i < 4; i++ {
		resp, err := r.Handle(submitFrame(t, fmt.Sprintf("tx-%d", i)))
		expectAccepted(t, resp, err)
	}
	if h.Failovers() != 1 {
		t.Fatalf("%d failovers, want 1", h.Failovers())
	}
	snap := reg.Snapshot()
	if snap.Counters["fleet.failovers_triggered"] == 0 ||
		snap.Counters["fleet.shard0.failovers"] != 1 {
		t.Fatalf("failover metrics missing: %v", snap.Counters)
	}
	if snap.Histograms["fleet.failover_latency"].Count != 1 {
		t.Fatalf("failover latency not observed: %+v", snap.Histograms)
	}

	var events []string
	for _, tr := range tracer.All() {
		if tr.Label() == "failover-shard0" {
			for _, ev := range tr.Events() {
				events = append(events, ev.Name)
			}
		}
	}
	got := strings.Join(events, " ")
	want := "failover.candidate failover.candidate failover.promote failover.fence failover.done"
	if got != want {
		t.Fatalf("failover trace events = %q, want %q", got, want)
	}
}

// Challenge answers must return to the shard that issued the nonce,
// and the pin must be released once the answer is delivered.
func TestRouterNoncePinning(t *testing.T) {
	r := NewRouter([]*ShardHandle{nil, nil, nil, nil}, nil)

	confirm := &core.ConfirmTx{}
	confirm.Nonce[0] = 0xAB
	frame, err := core.EncodeMessage(confirm)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := r.route(frame)
	if err != nil {
		t.Fatalf("route: %v", err)
	}

	// Pin the nonce to a different shard than its hash would pick.
	pinned := (hashed + 1) % 4
	r.pinNonce(confirm.Nonce, pinned)
	if got, _ := r.route(frame); got != pinned {
		t.Fatalf("pinned nonce routed to %d, want %d", got, pinned)
	}
	r.unpinNonce(confirm.Nonce)
	if got, _ := r.route(frame); got != hashed {
		t.Fatalf("unpinned nonce routed to %d, want hash fallback %d", got, hashed)
	}
}

// A restart after a failover must resume the PROMOTED lineage (the
// promoted member's segment, at the bumped epoch), not reopen the
// deposed primary's stale segment — which would discard every
// client-acknowledged post-failover commit and resurrect transactions
// for double execution.
func TestShardRestartAfterFailoverKeepsPromotedLineage(t *testing.T) {
	backends := map[string]*store.MemBackend{}

	first := startLocalShard(t, &LocalNet{}, 0, 1, nil, nil, backends)
	for i := 0; i < 2; i++ {
		resp, err := first.Handle(submitFrame(t, fmt.Sprintf("pre-%d", i)))
		expectAccepted(t, resp, err)
	}
	first.Primary().Kill()
	if err := first.Failover(first.Epoch()); err != nil {
		t.Fatalf("failover: %v", err)
	}
	// Client-acknowledged commits on the promoted lineage — exactly the
	// ones a stale-lineage restart would lose.
	for i := 0; i < 2; i++ {
		resp, err := first.Handle(submitFrame(t, fmt.Sprintf("post-%d", i)))
		expectAccepted(t, resp, err)
	}
	if err := first.Primary().Store().Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	second := startLocalShard(t, &LocalNet{}, 0, 1, nil, nil, backends)
	if second.Epoch() != 2 || second.PrimaryMember() != 1 {
		t.Fatalf("restarted shard at epoch %d on member %d, want the promoted epoch 2 on member 1",
			second.Epoch(), second.PrimaryMember())
	}
	history := second.Primary().Ledger().History()
	seen := map[string]int{}
	for _, tx := range history {
		seen[tx.ID]++
	}
	for _, id := range []string{"pre-0", "pre-1", "post-0", "post-1"} {
		if seen[id] != 1 {
			t.Fatalf("transaction %s executed %d times after restart, want exactly 1 (history %v)", id, seen[id], seen)
		}
	}
	bal, err := second.Primary().Ledger().Balance("payer")
	if err != nil || bal != 1_000_000-4 {
		t.Fatalf("restarted payer balance %d (err %v), want %d", bal, err, 1_000_000-4)
	}
	// A retransmission straddling the restart replays, never re-executes.
	resp, err := second.Handle(submitFrame(t, "post-1"))
	expectAccepted(t, resp, err)
	if bal, _ := second.Primary().Ledger().Balance("payer"); bal != 1_000_000-4 {
		t.Fatalf("retransmitted tx re-executed: balance %d", bal)
	}
	// The deposed member came back as a follower of the promoted
	// lineage, adopted by the start-up health pass.
	if applied := second.FollowerApplied(); len(applied) != 1 {
		t.Fatalf("restarted followers = %v, want the deposed member re-adopted", applied)
	}
}

// Every member keeps its own backends, so followers joined one after
// another never share storage, and adopting an already-linked member is
// a no-op rather than a second replication link.
func TestShardAddFollowerUniqueRoles(t *testing.T) {
	ln := &LocalNet{}
	s := startLocalShard(t, ln, 0, 1, nil, nil, nil)
	a, b := joinMember(t, ln, 2), joinMember(t, ln, 3)
	if a.state == b.state || a.manifest == b.manifest {
		t.Fatal("two joined members share a backend")
	}
	for _, m := range []int{2, 3, 2} {
		if _, err := ln.ctl(0, MemberAddr{Member: 0}, ctlReq{adopt: &adoptCmd{Member: m}}); err != nil {
			t.Fatalf("adopt member %d: %v", m, err)
		}
	}
	resp, err := s.Handle(submitFrame(t, "tx-0"))
	expectAccepted(t, resp, err)
	links := s.LinkHealth()
	if len(links) != 3 {
		t.Fatalf("primary ships to %d links, want 3 (re-adopting a member must not add a link)", len(links))
	}
	for _, n := range []*Node{a, b} {
		if st := n.Status(); st.Applied != 1 {
			t.Fatalf("member %d applied %d of 1 group", st.Member, st.Applied)
		}
	}
}

// Adopting a follower while traffic is committing must not race the
// commit hook's replicator (run under -race): the bootstrap happens
// inside the primary's quiescent window, so the new follower's base
// offset agrees with the shipped stream and every follower converges
// on the frontier.
func TestShardAddFollowerDuringTraffic(t *testing.T) {
	ln := &LocalNet{}
	s := startLocalShard(t, ln, 0, 1, nil, nil, nil)
	fresh := joinMember(t, ln, 2)

	const total = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			resp, err := s.Handle(submitFrame(t, fmt.Sprintf("tx-%d", i)))
			expectAccepted(t, resp, err)
		}
	}()

	if _, err := ln.ctl(0, MemberAddr{Member: 0}, ctlReq{adopt: &adoptCmd{Member: 2}}); err != nil {
		t.Fatalf("adopt under load: %v", err)
	}
	<-done

	if a := s.FollowerApplied(); len(a) != 1 || a[0] != total {
		t.Fatalf("original follower applied %v, want [%d]", a, total)
	}
	if a := fresh.Status().Applied; a != total {
		t.Fatalf("adopted follower applied %d of %d groups", a, total)
	}
}

// cadenceMember is localMember with a snapshot cadence short enough
// for many cadence points, and a bank large enough that none of them
// rotates: the primary's WAL outgrows no snapshot, so each cadence
// point appends a counters group instead.
func cadenceMember(m int, backends map[string]*store.MemBackend) NodeConfig {
	life := func(epoch uint64) core.ProviderConfig {
		return core.ProviderConfig{
			Name: "cadence-shard", Clock: sim.NewVirtualClock(), Random: sim.NewRand(epoch),
			ConfirmThresholdCents: 1_000_000, Epoch: epoch, SnapshotEvery: 2,
		}
	}
	cfg := localMember(0, m, nil, nil, backends)
	cfg.Build = func(epoch uint64) (*core.Provider, error) {
		p := core.NewProvider(life(epoch))
		if err := p.Ledger().CreateAccount("payer", 1_000_000); err != nil {
			return nil, err
		}
		for i := 0; i < 500; i++ {
			if err := p.Ledger().CreateAccount(fmt.Sprintf("filler-%03d", i), 0); err != nil {
				return nil, err
			}
		}
		return p, p.Ledger().CreateAccount("sink", 0)
	}
	cfg.Restore = func(epoch uint64, st *store.Store) (*core.Provider, error) {
		return core.RestoreProvider(life(epoch), st)
	}
	return cfg
}

// Adopting a follower after cadence points that wrote no snapshot, with
// a non-empty WAL, ships a full snapshot and nothing else: the primary
// folds its WAL into a fresh snapshot first, so the segment holds no
// WAL records and is no larger than a segment read right after a
// rotation. A provider restored from the adopted member's store — what
// promoting it runs — holds every transaction exactly once.
func TestShardAdoptAfterCadencePoints(t *testing.T) {
	ln := &LocalNet{}
	backends := map[string]*store.MemBackend{}
	s, err := ln.StartShard(0, 1, func(m int) NodeConfig { return cadenceMember(m, backends) }, ShardHandleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Primary().Store().Stats()
	n := 0
	for ; n < 10; n++ {
		resp, err := s.Handle(submitFrame(t, fmt.Sprintf("tx-%d", n)))
		expectAccepted(t, resp, err)
	}
	st := s.Primary().Store().Stats()
	if st.Snapshots != before.Snapshots || st.WALBytes == 0 {
		t.Fatalf("after %d transactions: %d snapshots (was %d), %d WAL bytes; want no rotation and a non-empty WAL",
			n, st.Snapshots, before.Snapshots, st.WALBytes)
	}

	cfg := cadenceMember(2, backends)
	cfg.Member, cfg.StartRole, cfg.Net = 2, NodeRoleFollower, ln
	fresh, err := ln.join(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ln.ctl(0, MemberAddr{Member: s.PrimaryMember()}, ctlReq{adopt: &adoptCmd{Member: 2}}); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if got := s.Primary().Store().Stats(); got.Generation != st.Generation+1 || got.WALBytes != 0 {
		t.Fatalf("primary at generation %d with %d WAL bytes after the adoption; want %d and none",
			got.Generation, got.WALBytes, st.Generation+1)
	}
	seg, err := s.Primary().Store().ReadSegment()
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Records) != 0 {
		t.Fatalf("adoption segment carried %d WAL records beside its full state", len(seg.Records))
	}
	for i := 0; i < 5; i++ {
		resp, err := s.Handle(submitFrame(t, fmt.Sprintf("tx-%d", n)))
		expectAccepted(t, resp, err)
		n++
	}
	if got := fresh.Status().Applied; got != uint64(n) {
		t.Fatalf("adopted member applied %d groups, want %d", got, n)
	}

	p := restoreBackendCopy(t, backends["2/state"])
	resp, err := p.Handle(submitFrame(t, "tx-3"))
	expectAccepted(t, resp, err)
	seen := map[string]bool{}
	for _, tx := range p.Ledger().History() {
		if seen[tx.ID] {
			t.Fatalf("transaction %s applied twice", tx.ID)
		}
		seen[tx.ID] = true
	}
	if bal, _ := p.Ledger().Balance("sink"); len(seen) != n || bal != int64(n) {
		t.Fatalf("restored member holds %d transactions, sink %d; want %d", len(seen), bal, n)
	}
}

// restoreBackendCopy restores a provider from a copy of b's files,
// leaving the member that owns b alone.
func restoreBackendCopy(t *testing.T, b *store.MemBackend) *core.Provider {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	cp := store.NewMemBackend()
	for _, name := range names {
		data, err := b.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := cp.Create(name)
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
	st, err := store.Open(cp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.RestoreProvider(core.ProviderConfig{Name: "promoted", Clock: sim.NewVirtualClock(), ConfirmThresholdCents: 1_000_000}, st)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fallbackMember is localMember with the named accounts opened beside
// payer and sink, each holding 1,000,000 cents.
func fallbackMember(shard, m int, plan *faults.FleetPlan, accounts ...string) NodeConfig {
	cfg := localMember(shard, m, plan, nil, nil)
	build := cfg.Build
	cfg.Build = func(epoch uint64) (*core.Provider, error) {
		p, err := build(epoch)
		for _, name := range accounts {
			if err == nil {
				err = p.Ledger().CreateAccount(name, 1_000_000)
			}
		}
		return p, err
	}
	return cfg
}

// requestFallback asks handle for a CAPTCHA that gates tx, in the name
// of the client platform platformID.
func requestFallback(t *testing.T, handle func([]byte) ([]byte, error), platformID string, tx *core.Transaction) *core.FallbackChallenge {
	t.Helper()
	frame, err := core.EncodeMessage(&core.FallbackRequest{
		PlatformID: platformID, Reason: "pal launch failed", Failures: 3, Tx: tx,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := handle(frame)
	if err != nil {
		t.Fatalf("fallback request for %s: %v", tx.ID, err)
	}
	msg, err := core.DecodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.(*core.FallbackChallenge)
	if !ok {
		t.Fatalf("fallback request for %s answered %+v", tx.ID, msg)
	}
	return ch
}

// answerFrame encodes the correct transcription of a CAPTCHA.
func answerFrame(t *testing.T, ch *core.FallbackChallenge) []byte {
	t.Helper()
	frame, err := core.EncodeMessage(&core.FallbackAnswer{Nonce: ch.Nonce, Response: ch.Text})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// executions counts how often p's ledger executed the transaction id.
func executions(p *core.Provider, id string) int {
	n := 0
	for _, tx := range p.Ledger().History() {
		if tx.ID == id {
			n++
		}
	}
	return n
}

// CAPTCHA fallbacks route like submissions, by the debited account, and
// their answers follow the challenge nonce back to the issuing shard.
// Two fallbacks are outstanding on different shards at once; each
// client's platform ID hashes to the other shard, so routing by it
// would execute the order where its account does not live.
func TestRouterFallbackRoutesByAccount(t *testing.T) {
	ring := NewRing(2, DefaultVirtualNodes)
	home, platform := [2]string{}, [2]string{}
	for i := 0; home[0] == "" || home[1] == "" || platform[0] == "" || platform[1] == ""; i++ {
		name := fmt.Sprintf("acct-%d", i)
		if s := ring.Shard(name); home[s] == "" {
			home[s] = name
		}
		plat := fmt.Sprintf("plat-%d", i)
		if s := ring.Shard(plat); platform[1-s] == "" {
			platform[1-s] = plat
		}
	}
	ln := &LocalNet{}
	shards := make([]*ShardHandle, 2)
	for s := range shards {
		h, err := ln.StartShard(s, 1, func(m int) NodeConfig {
			return fallbackMember(s, m, nil, home[0], home[1])
		}, ShardHandleConfig{})
		if err != nil {
			t.Fatalf("StartShard: %v", err)
		}
		shards[s] = h
	}
	r := NewRouter(shards, nil)

	var txs [2]*core.Transaction
	var chs [2]*core.FallbackChallenge
	for s := range txs {
		txs[s] = &core.Transaction{ID: fmt.Sprintf("fb-%d", s), From: home[s], To: "sink", AmountCents: 500, Currency: "EUR"}
		chs[s] = requestFallback(t, r.Handle, platform[s], txs[s])
	}
	for s := range txs {
		resp, err := r.Handle(answerFrame(t, chs[s]))
		if out := expectAccepted(t, resp, err); out.TxID != txs[s].ID {
			t.Fatalf("answer for %s executed %q", txs[s].ID, out.TxID)
		}
	}
	for s, h := range shards {
		for o, tx := range txs {
			want := 0
			if o == s {
				want = 1
			}
			if n := executions(h.Primary(), tx.ID); n != want {
				t.Errorf("shard %d executed %s (debiting %s) %d times, want %d", s, tx.ID, tx.From, n, want)
			}
		}
	}
}

// A CAPTCHA issued before a failover is redeemable after it: the
// pending challenge ships with the request's group, so the promoted
// follower holds it. Whether the primary dies between request and
// answer, or while committing the answer before or after shipping it,
// the client's answer is accepted and the transfer executes exactly
// once, and a retransmission replays the same outcome.
func TestShardFallbackAcrossFailover(t *testing.T) {
	for _, c := range []struct {
		name  string
		phase faults.KillPhase // killed at the answer's commit, unless between
	}{
		{name: "killed between request and answer"},
		{name: "answer killed before ship", phase: faults.KillBeforeShip},
		{name: "answer killed after ship", phase: faults.KillAfterShip},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := faults.NewFleetPlan()
			if c.phase != 0 {
				plan.KillPrimary(0, c.phase, 2)
			}
			ln := &LocalNet{}
			h, err := ln.StartShard(0, 1, func(m int) NodeConfig {
				return localMember(0, m, plan, nil, nil)
			}, ShardHandleConfig{})
			if err != nil {
				t.Fatalf("StartShard: %v", err)
			}
			r := NewRouter([]*ShardHandle{h}, nil)

			tx := &core.Transaction{ID: "fb", From: "payer", To: "sink", AmountCents: 700, Currency: "EUR"}
			ch := requestFallback(t, r.Handle, "plat-1", tx)
			if c.phase == 0 {
				h.Primary().Kill()
			}
			answer := answerFrame(t, ch)
			resp, err := r.Handle(answer)
			first := expectAccepted(t, resp, err)
			if first.TxID != tx.ID {
				t.Fatalf("answer executed %q, want %s", first.TxID, tx.ID)
			}
			if h.Failovers() != 1 {
				t.Fatalf("%d failovers, want 1", h.Failovers())
			}
			resp, err = r.Handle(answer)
			if again := expectAccepted(t, resp, err); *again != *first {
				t.Fatalf("retransmitted answer = %+v, want the recorded %+v", again, first)
			}
			if n := executions(h.Primary(), tx.ID); n != 1 {
				t.Fatalf("transfer executed %d times on the promoted primary, want 1", n)
			}
			if bal, err := h.Primary().Ledger().Balance("payer"); err != nil || bal != 1_000_000-700 {
				t.Fatalf("payer holds %d (%v), want %d", bal, err, 1_000_000-700)
			}
		})
	}
}
