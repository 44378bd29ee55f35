package experiments

// F15 is the distributed kill matrix: F13's exactly-once chaos cells
// re-run against *real OS processes* — one tpserver process per shard
// member plus a router process, connected over loopback TCP with the
// wire transport's epoch-fenced handshakes. Members SIGKILL themselves
// at armed stream offsets (or the harness SIGKILLs them), the chaos
// proxy is spliced into individual replication links for partitions,
// slowloris throttling, and bit corruption, and a deposed primary is
// restarted with its original command line to prove the handshake
// fences it into a follower instead of resurrecting a split brain.
//
// The oracle is post-mortem and on-disk: after every process stops,
// each shard's final lineage is located through the durable node
// manifests, its provider restored from its data directory, and
// internal/check audits the drain against the restored providers:
// exactly-once execution and reconciled balances (the audit-chain rule
// is vacuous: auto-accepted transfers write no audit entry, and the
// table's violations column says so). Expected shape: zero lost, zero doubled
// confirmations in every cell; exactly the scripted number of
// failovers; the partition cell's failover completing *while* the
// replication link is severed; and the rejoined deposed primary ending
// as a caught-up follower of the new lineage.

import (
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"unitp/internal/check"
	"unitp/internal/faults"
	"unitp/internal/fleet"
	"unitp/internal/metrics"
	"unitp/internal/obs"
)

// f15TxsPerShard is each cell's drain depth per shard — deep enough
// that the armed kill offsets (8, 16) land mid-drain with work left on
// both sides.
const f15TxsPerShard = 24

// f15RejoinTxs is the post-rejoin drain proving the healed fleet still
// serves and replicates.
const f15RejoinTxs = 6

// f15Row is one rendered matrix cell.
type f15Row struct {
	name      string
	procs     int
	txs       int
	accepted  int
	failovers int
	wantFail  int
	rep       *check.Report
	note      string
}

// f15CellSpec scripts one cell. during runs mid-drain: the cell drains
// the first third of its workload, then runs during while the remainder
// drains concurrently — so the scripted chaos always lands with traffic
// both behind and ahead of it, regardless of machine load. after runs
// once the drain is done but while the fleet is still up (rejoin,
// re-link waits) and may add the transactions it drains to accepted.
// wantFail -1 means the cell does not script its failover count (the
// corruption cell: a badly-timed run of corrupted retransmissions may
// legitimately exhaust the ship retry budget and fail over — the
// invariant is that state stays exactly-once either way).
type f15CellSpec struct {
	name     string
	cfg      procFleetConfig
	per      int
	wantFail int
	during   func(pf *procFleet) (string, error)
	after    func(pf *procFleet, accepted map[string]int64) (string, error)
}

// f15SplitFrames cuts each worker's frame stream at cut: the head is
// drained before the chaos script runs, the tail concurrently with it.
func f15SplitFrames(frames [][][]byte, cut int) (head, tail [][][]byte) {
	head = make([][][]byte, len(frames))
	tail = make([][][]byte, len(frames))
	for w, fs := range frames {
		if cut > len(fs) {
			cut = len(fs)
		}
		head[w], tail[w] = fs[:cut], fs[cut:]
	}
	return head, tail
}

// runF15Cell boots the cell's process fleet, drains the workload
// through the router while the scripted chaos runs, stops every
// process gracefully, and audits the surviving data directories.
func runF15Cell(spec f15CellSpec) (f15Row, error) {
	row := f15Row{name: spec.name, wantFail: spec.wantFail}
	pf, err := startProcFleet(spec.cfg)
	if err != nil {
		return row, fmt.Errorf("f15 %s: boot: %w", spec.name, err)
	}
	defer pf.destroy()
	row.procs = spec.cfg.shards*(spec.cfg.followers+1) + 1 // members + router

	frames, err := procMint(spec.cfg.tag, pf.homed, spec.per)
	if err != nil {
		return row, err
	}
	accepted := submitted(frames)
	row.txs = spec.per * spec.cfg.shards

	var progress atomic.Int64
	if spec.during == nil {
		drained, _, err := f14Drain(pf.routerAddr, frames, obs.NewRegistry(), &progress)
		if err != nil {
			return row, fmt.Errorf("f15 %s: drain: %w", spec.name, pf.bootError(err))
		}
		row.accepted = drained
	} else {
		// Two-phase drain: settle the first third, then fire the chaos
		// script while the tail drains concurrently. The script always
		// lands mid-stream — work committed behind it, work in flight
		// ahead of it — no matter how fast the drain runs.
		head, tail := f15SplitFrames(frames, spec.per/3)
		headAccepted, _, err := f14Drain(pf.routerAddr, head, obs.NewRegistry(), &progress)
		if err != nil {
			return row, fmt.Errorf("f15 %s: head drain: %w", spec.name, pf.bootError(err))
		}
		type drainRes struct {
			accepted int
			err      error
		}
		tailCh := make(chan drainRes, 1)
		go func() {
			accepted, _, terr := f14Drain(pf.routerAddr, tail, obs.NewRegistry(), &progress)
			tailCh <- drainRes{accepted, terr}
		}()
		note, derr := spec.during(pf)
		tr := <-tailCh
		if tr.err != nil {
			return row, fmt.Errorf("f15 %s: tail drain: %w", spec.name, pf.bootError(tr.err))
		}
		if derr != nil {
			return row, fmt.Errorf("f15 %s: chaos script: %w", spec.name, derr)
		}
		row.accepted = headAccepted + tr.accepted
		row.note = note
	}

	if spec.after != nil {
		note, aerr := spec.after(pf, accepted)
		if aerr != nil {
			return row, fmt.Errorf("f15 %s: after: %w", spec.name, pf.bootError(aerr))
		}
		if note != "" {
			if row.note != "" {
				row.note += "; "
			}
			row.note += note
		}
	}

	row.failovers = pf.failovers()
	pf.stopAll()
	row.rep, err = pf.procAudit(accepted)
	if err != nil {
		return row, fmt.Errorf("f15 %s: audit: %w", spec.name, err)
	}
	return row, nil
}

// f15PartitionDuring severs shard 0's proxied replication link
// (member 2) mid-drain and requires the failover to complete while the
// partition is still open — the wire protocol must route the promotion
// around the severed link (member 1, reachable directly, wins it), not
// wait for the partition to heal.
func f15PartitionDuring(pf *procFleet) (string, error) {
	proxy := pf.members[0][2].proxy
	proxy.Partition()
	defer proxy.Heal()
	if err := pf.waitEpochAtLeast(0, 2, 20*time.Second); err != nil {
		return "", fmt.Errorf("no failover while partitioned: %w", err)
	}
	st := proxy.Stats()
	return fmt.Sprintf("promoted during partition (severed=%d)", st.Severed), nil
}

// f15RelinkAfter waits for the warden to re-adopt the partitioned
// follower into the new lineage once the link heals.
func f15RelinkAfter(pf *procFleet, _ map[string]int64) (string, error) {
	if err := pf.waitFollowerLinked(0, 2, procReadyTimeout); err != nil {
		return "", err
	}
	return "healed link re-adopted", nil
}

// f15RejoinAfter restarts the SIGKILLed deposed primary with its
// original command line. The node resumes its durable manifest role
// (primary, old epoch), is fenced by the ship handshake against the
// new lineage, demotes itself to follower, and is re-adopted by the
// warden — after which a second drain proves the healed fleet still
// serves with the old primary replicating under the new epoch.
func f15RejoinAfter(pf *procFleet, accepted map[string]int64) (string, error) {
	deposed := pf.members[0][0]
	if err := deposed.start(pf.bin); err != nil {
		return "", err
	}
	if err := procWaitListening(deposed.addr); err != nil {
		return "", err
	}
	if err := pf.waitRole(0, 0, fleet.WelcomeFollower, procReadyTimeout); err != nil {
		return "", fmt.Errorf("deposed primary not fenced to follower: %w", err)
	}
	if err := pf.waitFollowerLinked(0, 0, procReadyTimeout); err != nil {
		return "", fmt.Errorf("deposed primary not re-adopted: %w", err)
	}
	frames, err := procMint(pf.cfg.tag+"-rejoin", pf.homed, f15RejoinTxs)
	if err != nil {
		return "", err
	}
	extra := submitted(frames)
	drained, _, err := f14Drain(pf.routerAddr, frames, obs.NewRegistry(), nil)
	if err != nil {
		return "", fmt.Errorf("post-rejoin drain: %w", err)
	}
	if drained != len(extra) {
		return "", fmt.Errorf("post-rejoin drain accepted %d of %d", drained, len(extra))
	}
	maps.Copy(accepted, extra)
	if err := pf.waitFollowerLinked(0, 0, procReadyTimeout); err != nil {
		return "", fmt.Errorf("rejoined follower lagging after drain: %w", err)
	}
	st, err := pf.probe(0, 0)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("rejoined as follower at epoch %d, +%d txs replicated", st.Epoch, drained), nil
}

// f15ProxyNote renders a spliced proxy's fault counters for the table.
func f15ProxyNote(p *faults.Proxy) string {
	st := p.Stats()
	return fmt.Sprintf("resets=%d corrupted=%d fwd=%dKiB", st.Resets, st.Corrupted, st.BytesForwarded>>10)
}

// f15Cells scripts the matrix.
func f15Cells() []f15CellSpec {
	return []f15CellSpec{
		{
			// Two shards prove cross-shard routing over the wire with
			// zero failovers when nothing goes wrong.
			name: "baseline",
			cfg:  procFleetConfig{tag: "base", shards: 2, followers: 1},
			per:  f15TxsPerShard,
		},
		{
			// The primary SIGKILLs itself after committing locally but
			// before shipping the group crossing offset 8: that group
			// is lost with the process, and the resubmitted transaction
			// must execute exactly once on the promoted follower.
			name: "kill-before-ship",
			cfg: procFleetConfig{tag: "kb", shards: 1, followers: 2,
				chaos: map[[2]int]procChaos{{0, 0}: {killBefore: 8}}},
			per: f15TxsPerShard, wantFail: 1,
		},
		{
			// The primary SIGKILLs itself after shipping offset 8 but
			// before answering: the follower already holds the group,
			// and the resubmission must be deduplicated, not re-run.
			name: "kill-after-ship",
			cfg: procFleetConfig{tag: "ka", shards: 1, followers: 2,
				chaos: map[[2]int]procChaos{{0, 0}: {killAfter: 8}}},
			per: f15TxsPerShard, wantFail: 1,
		},
		{
			// Sever one replication link mid-drain. Synchronous
			// shipping kills the primary; the promotion must complete
			// around the severed link while it is still open, and the
			// warden re-adopts the follower after the heal.
			name: "partition-ship-link",
			cfg: procFleetConfig{tag: "part", shards: 1, followers: 2,
				chaos: map[[2]int]procChaos{{0, 2}: {proxied: true}}},
			per: f15TxsPerShard, wantFail: 1,
			during: f15PartitionDuring, after: f15RelinkAfter,
		},
		{
			// Throttle the replication link to 32 KiB/s: shipping slows
			// but never fails, so no failover fires and nothing is lost.
			name: "slowloris-ship-link",
			cfg: procFleetConfig{tag: "slow", shards: 1, followers: 1,
				chaos: map[[2]int]procChaos{{0, 1}: {throttle: 32 << 10}}},
			per: f15TxsPerShard,
			after: func(pf *procFleet, _ map[string]int64) (string, error) {
				if err := pf.waitAllLinked(0, procReadyTimeout); err != nil {
					return "", err
				}
				return f15ProxyNote(pf.members[0][1].proxy), nil
			},
		},
		{
			// Corrupt 2% of replication chunks: the CRC-framed wire
			// rejects them, the supervised ship client reconnects and
			// re-handshakes, and the follower's offset dedupe absorbs
			// every re-sent group. The failover count is unscripted — a
			// corrupted burst may legitimately exhaust the ship retry
			// budget and depose the primary; exactly-once must hold
			// either way.
			name: "corrupt-ship-link",
			cfg: procFleetConfig{tag: "corr", shards: 1, followers: 1,
				chaos: map[[2]int]procChaos{{0, 1}: {corrupt: 0.02}}},
			per: f15TxsPerShard, wantFail: -1,
			after: func(pf *procFleet, _ map[string]int64) (string, error) {
				if err := pf.waitAllLinked(0, procReadyTimeout); err != nil {
					return "", err
				}
				return f15ProxyNote(pf.members[0][1].proxy), nil
			},
		},
		{
			// Two lineage changes in one drain: the primary dies before
			// shipping offset 8, the promoted follower dies after
			// shipping offset 16, and the second follower finishes the
			// drain at epoch 3. Its own armed kill-after offset is
			// already behind its promotion frontier and must not fire.
			name: "kill-twice",
			cfg: procFleetConfig{tag: "k2", shards: 1, followers: 2,
				chaos: map[[2]int]procChaos{
					{0, 0}: {killBefore: 8},
					{0, 1}: {killAfter: 16},
					{0, 2}: {killAfter: 16},
				}},
			per: f15TxsPerShard, wantFail: 2,
		},
		{
			// The deposed primary is restarted with its original
			// command line after the failover: the handshake fences it,
			// it demotes to follower, and the warden re-adopts it into
			// the new lineage.
			name: "deposed-primary-rejoin",
			cfg: procFleetConfig{tag: "rejoin", shards: 1, followers: 1,
				chaos: map[[2]int]procChaos{{0, 0}: {killBefore: 8}}},
			per: f15TxsPerShard, wantFail: 1,
			after: f15RejoinAfter,
		},
	}
}

// f15Matrix runs every cell and renders the table.
func f15Matrix(cells []f15CellSpec) (string, int, bool, error) {
	table := metrics.NewTable(
		fmt.Sprintf("F15: distributed kill matrix — every shard member and the router a real OS process on loopback TCP, %d auto-accept txs per shard, chaos on the replication links, post-mortem audit from the survivors' data directories", f15TxsPerShard),
		"cell", "procs", "txs", "accepted", "failovers (want)", "violations", "note")
	violations := 0
	failoversMatch := true
	for _, spec := range cells {
		row, err := runF15Cell(spec)
		if err != nil {
			return "", 0, false, err
		}
		violations += len(row.rep.Violations)
		wantCol := fmt.Sprintf("%d (%d)", row.failovers, row.wantFail)
		if row.wantFail < 0 {
			wantCol = fmt.Sprintf("%d (any)", row.failovers)
		} else if row.failovers != row.wantFail {
			failoversMatch = false
		}
		table.AddRow(row.name,
			fmt.Sprintf("%d", row.procs),
			fmt.Sprintf("%d", row.txs),
			fmt.Sprintf("%d", row.accepted),
			wantCol,
			checkCell(row.rep),
			row.note)
	}
	return table.Render(), violations, failoversMatch, nil
}

// f15Verdict renders the acceptance lines.
func f15Verdict(violations int, failoversMatch bool) string {
	exactlyOnce := "PASS"
	if violations != 0 {
		exactlyOnce = "FAIL"
	}
	lineage := "PASS"
	if !failoversMatch {
		lineage = "FAIL"
	}
	return fmt.Sprintf("exactly-once across process kills, partitions, and rejoins: %d violations (target 0) — %s\n", violations, exactlyOnce) +
		fmt.Sprintf("every scripted cell saw exactly its scripted number of failovers — %s\n", lineage)
}

// RunF15 runs the full distributed matrix.
//
// Shape expectations: zero exactly-once violations in every cell; each
// cell's failover count exactly as scripted (including zero for the
// slowloris and corruption cells — degraded links must not trigger
// promotions); the partition cell's promotion completing while the
// link is severed; and the rejoin cell ending with the deposed primary
// as a caught-up follower of the new epoch.
func RunF15() (*Result, error) {
	matrix, violations, failoversMatch, err := f15Matrix(f15Cells())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:    "f15",
		Title: "Distributed fleet kill matrix (real processes over TCP)",
		Text:  joinSections(matrix, f15Verdict(violations, failoversMatch)),
	}, nil
}

// RunF15Smoke is the multi-process chaos gate behind `make
// chaos-smoke`: router + one shard (primary + one follower) as real
// child processes, one harness-side SIGKILL of the primary mid-drain,
// exactly-once asserted from the survivors' disks.
func RunF15Smoke() (*Result, error) {
	row, err := runF15Cell(f15CellSpec{
		name: "proc-sigkill",
		cfg:  procFleetConfig{tag: "smoke", shards: 1, followers: 1},
		per:  12, wantFail: 1,
		during: func(pf *procFleet) (string, error) {
			pf.members[0][0].sigkill()
			if err := pf.waitEpochAtLeast(0, 2, 20*time.Second); err != nil {
				return "", fmt.Errorf("no failover after SIGKILL: %w", err)
			}
			return "primary SIGKILLed mid-drain", nil
		},
	})
	if err != nil {
		return nil, err
	}
	verdict := "PASS"
	if len(row.rep.Violations) != 0 || row.failovers != row.wantFail || row.accepted != row.txs {
		verdict = "FAIL"
	}
	text := fmt.Sprintf(
		"F15 smoke: %d-process fleet, %s; accepted %d/%d, failovers %d (want %d), violations %s — %s\n",
		row.procs, row.note, row.accepted, row.txs, row.failovers, row.wantFail, checkCell(row.rep), verdict)
	return &Result{ID: "f15", Title: "Distributed fleet kill matrix (smoke)", Text: text}, nil
}

// f15CellByName is the per-cell entry point the matrix tests use.
func f15CellByName(name string) (f15Row, error) {
	for _, spec := range f15Cells() {
		if spec.name == name {
			return runF15Cell(spec)
		}
	}
	return f15Row{}, fmt.Errorf("f15: unknown cell %q", name)
}
