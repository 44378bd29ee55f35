package fleet

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"

	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
)

// ShardHandle is the router's handle on one shard: a request channel
// pinned to the member believed primary, plus the control channel that
// turns "the primary is dead, fenced, or unreachable" into a supervised
// failover — probe every member, promote the most caught-up follower at
// a fresh epoch, re-bootstrap the survivors, and repoint. It is the
// fleet's only failover path, whichever Net carries its members: F13's
// in-process kill matrix and F15's SIGKILLed processes run the same
// code.
type ShardHandle struct {
	cfg ShardHandleConfig

	// epoch is the newest shard epoch the handle has observed (from
	// welcomes and probes). Failover(observedEpoch) quotes it back, so
	// concurrent triggers collapse into one promotion.
	epoch atomic.Uint64

	mu        sync.Mutex // serializes failovers and guards conn/primary
	conn      memberConn
	primary   int // index into cfg.Members
	failovers int
}

// MemberAddr names one shard member. Addr is the member's wire listener
// (requests, control, and — by default — replication); in-process
// members need only Member. ShipAddr, when set, is the address OTHER
// members use to ship WAL to this member; pointing it at a chaos proxy
// aims partitions and corruption at the replication link while the
// control plane stays reachable.
type MemberAddr struct {
	Member   int
	Addr     string
	ShipAddr string
}

// shipAddr is the address replication peers should dial.
func (m MemberAddr) shipAddr() string {
	if m.ShipAddr != "" {
		return m.ShipAddr
	}
	return m.Addr
}

// ShardHandleConfig assembles a shard handle.
type ShardHandleConfig struct {
	Shard int

	// Members lists the shard's members; the first is believed primary
	// until a welcome or probe says otherwise.
	Members []MemberAddr

	// Scheme is the crypto profile asserted in the router hello (zero =
	// RSA).
	Scheme cryptoutil.SchemeID

	// Net reaches the members (default Wire).
	Net Net

	// Metrics receives failover counters and latency; Tracer receives
	// one trace session per failover; Clock times them (default wall).
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Logger  *slog.Logger
	Clock   sim.Clock
}

// NewShardHandle builds the handle; no channel is opened until the
// first request or health check.
func NewShardHandle(cfg ShardHandleConfig) (*ShardHandle, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: shard %d has no members", cfg.Shard)
	}
	if cfg.Net == nil {
		cfg.Net = Wire
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.WallClock{}
	}
	h := &ShardHandle{cfg: cfg}
	h.epoch.Store(1)
	return h, nil
}

// Epoch returns the newest epoch the handle has observed.
func (h *ShardHandle) Epoch() uint64 { return h.epoch.Load() }

// Failovers reports completed failovers.
func (h *ShardHandle) Failovers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failovers
}

// PrimaryMember reports the member currently believed primary.
func (h *ShardHandle) PrimaryMember() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cfg.Members[h.primary].Member
}

// Primary returns the believed primary's live provider — in-process
// shards only (nil over the wire, or while the member is not primary):
// health, audit verification, and experiment oracles read it directly.
func (h *ShardHandle) Primary() *core.Provider {
	if n := h.cfg.Net.node(h.cfg.Shard, h.PrimaryMember()); n != nil {
		return n.Provider()
	}
	return nil
}

// LinkHealth reports the believed primary's replication links.
func (h *ShardHandle) LinkHealth() []LinkHealth {
	st, _, _, err := h.Status()
	if err != nil {
		return nil
	}
	return st.Links
}

// FollowerApplied returns the stream offset of every reachable
// follower, in member order — the shard's replication frontier.
func (h *ShardHandle) FollowerApplied() []uint64 {
	var out []uint64
	for _, m := range h.cfg.Members {
		if st, err := h.probe(m); err == nil && st.Role == WelcomeFollower {
			out = append(out, st.Applied)
		}
	}
	return out
}

// Handle dispatches one request to the believed primary. Failures that
// mean "route elsewhere" (dead, fenced, demoted, unreachable) trip
// FailoverTrigger; other errors reach the client unharmed.
func (h *ShardHandle) Handle(req []byte) ([]byte, error) {
	h.mu.Lock()
	if h.conn == nil {
		h.conn = h.cfg.Net.request(h, h.cfg.Members[h.primary])
	}
	conn := h.conn
	h.mu.Unlock()
	return conn.RoundTrip(req)
}

// routerHello is the role handshake a request channel opens with,
// carrying the handle's newest observed epoch: a handshake that lands
// on a deposed primary both deposes it and tells the handle to route
// around it.
func (h *ShardHandle) routerHello() Hello {
	return Hello{
		Kind:   HelloRouter,
		Scheme: uint8(h.cfg.Scheme),
		Shard:  uint32(h.cfg.Shard),
		Epoch:  h.epoch.Load(),
	}
}

// welcomed checks the request channel's welcome from member.
func (h *ShardHandle) welcomed(member int, w Welcome) error {
	h.observeEpoch(w.Epoch)
	if w.Role != WelcomePrimary {
		return &netsim.RemoteError{
			Msg:  fmt.Sprintf("fleet: member %d answered the router hello as a non-primary", member),
			Code: netsim.ErrCodeFailover,
		}
	}
	return nil
}

// observeEpoch ratchets the handle's epoch observation upward.
func (h *ShardHandle) observeEpoch(e uint64) {
	for {
		cur := h.epoch.Load()
		if e <= cur || h.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// probe asks one member for its status.
func (h *ShardHandle) probe(m MemberAddr) (MemberStatus, error) {
	return h.cfg.Net.ctl(h.cfg.Shard, m, ctlReq{})
}

// Failover promotes past observedEpoch unless the shard already moved
// beyond it. The incumbent is probed first so a transient blip (one
// dropped connection) collapses into a no-op; a genuinely dead or
// fenced primary triggers the full protocol.
func (h *ShardHandle) Failover(observedEpoch uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.epoch.Load() > observedEpoch {
		return nil
	}
	if st, err := h.probe(h.cfg.Members[h.primary]); err == nil &&
		st.Role == WelcomePrimary && st.Healthy && !st.Fenced && st.Epoch >= observedEpoch {
		h.observeEpoch(st.Epoch)
		return nil
	}
	return h.failoverLocked(observedEpoch)
}

// failoverLocked runs the supervised failover protocol, recording it as
// one trace session. Caller holds h.mu.
//
//  1. Sweep every member's status over the control channel.
//  2. If some member already serves as a healthy primary past the
//     observation (a concurrent failover won, or a promote this handle
//     commanded timed out on the answer but took effect), adopt it.
//  3. Otherwise promote the most caught-up reachable follower at an
//     epoch past everything observed, listing every other member as a
//     survivor — the promote bootstraps the reachable ones and skips
//     the unreachable ones, and a still-live deposed primary among them
//     is deposed by the bootstrap's own handshake.
func (h *ShardHandle) failoverLocked(observedEpoch uint64) error {
	start := h.cfg.Clock.Now()
	tr := h.cfg.Tracer.StartSession(h.cfg.Clock)
	tr.SetLabel(fmt.Sprintf("failover-shard%d", h.cfg.Shard))
	defer tr.Finish()
	fail := func(err error) error {
		tr.Event("failover.failed", err.Error())
		return err
	}

	type probed struct {
		idx int
		st  MemberStatus
	}
	var reachable []probed
	maxEpoch := observedEpoch
	for i, m := range h.cfg.Members {
		st, err := h.probe(m)
		if err != nil {
			h.cfg.Logger.Warn("fleet: member unreachable during failover sweep",
				"shard", h.cfg.Shard, "member", m.Member, "err", err)
			continue
		}
		tr.Event("failover.candidate", fmt.Sprintf("member=%d role=%d healthy=%t epoch=%d applied=%d",
			m.Member, st.Role, st.Healthy, st.Epoch, st.Applied))
		reachable = append(reachable, probed{idx: i, st: st})
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}

	// A healthy primary past the observation already exists: adopt it.
	for _, p := range reachable {
		if p.st.Role == WelcomePrimary && p.st.Healthy && !p.st.Fenced && p.st.Epoch > observedEpoch {
			h.repointLocked(p.idx, p.st.Epoch)
			tr.Event("failover.done", fmt.Sprintf("adopted member=%d epoch=%d", h.cfg.Members[p.idx].Member, p.st.Epoch))
			h.cfg.Logger.Info("fleet: adopted already-promoted primary",
				"shard", h.cfg.Shard, "member", h.cfg.Members[p.idx].Member, "epoch", p.st.Epoch)
			return nil
		}
	}

	// Most caught-up reachable follower wins; ties break to the lowest
	// member id so concurrent routers converge.
	var followers []probed
	for _, p := range reachable {
		if p.st.Role == WelcomeFollower && p.st.Healthy {
			followers = append(followers, p)
		}
	}
	if len(followers) == 0 {
		return fail(fmt.Errorf("%w: shard %d has no reachable follower", ErrNoFollower, h.cfg.Shard))
	}
	sort.Slice(followers, func(a, b int) bool {
		if followers[a].st.Applied != followers[b].st.Applied {
			return followers[a].st.Applied > followers[b].st.Applied
		}
		return h.cfg.Members[followers[a].idx].Member < h.cfg.Members[followers[b].idx].Member
	})
	winner := followers[0]
	newEpoch := maxEpoch + 1

	var survivors []PeerAddr
	for i, m := range h.cfg.Members {
		if i != winner.idx {
			survivors = append(survivors, PeerAddr{Member: m.Member, Addr: m.shipAddr()})
		}
	}

	cand := h.cfg.Members[winner.idx]
	tr.Event("failover.promote", fmt.Sprintf("member=%d applied=%d epoch=%d", cand.Member, winner.st.Applied, newEpoch))
	sp := tr.StartSpan("failover.restore")
	st, err := h.cfg.Net.ctl(h.cfg.Shard, cand, ctlReq{promote: &promoteCmd{NewEpoch: newEpoch, Survivors: survivors}})
	sp.End()
	if err != nil {
		return fail(fmt.Errorf("fleet: shard %d: promoting member %d to epoch %d: %w",
			h.cfg.Shard, cand.Member, newEpoch, err))
	}
	// Every survivor the promote reached now serves the new epoch and
	// refuses the old one: the deposed primary is fenced out.
	tr.Event("failover.fence", fmt.Sprintf("epoch=%d fenced", observedEpoch))
	h.repointLocked(winner.idx, st.Epoch)
	h.failovers++
	d := h.cfg.Clock.Now().Sub(start)
	tr.Event("failover.done", fmt.Sprintf("member=%d epoch=%d links=%d duration=%s", cand.Member, st.Epoch, len(st.Links), d))
	h.cfg.Metrics.Counter(fmt.Sprintf("fleet.shard%d.failovers", h.cfg.Shard)).Inc()
	h.cfg.Metrics.Observe("fleet.failover_latency", d)
	h.cfg.Logger.Info("fleet: failover complete",
		"shard", h.cfg.Shard, "member", cand.Member, "epoch", st.Epoch,
		"applied", st.Applied, "links", len(st.Links), "took", d)
	return nil
}

// repointLocked swaps the request channel to a new primary. Caller
// holds h.mu.
func (h *ShardHandle) repointLocked(idx int, epoch uint64) {
	if h.conn != nil {
		h.conn.Close()
		h.conn = nil
	}
	h.primary = idx
	h.observeEpoch(epoch)
}

// HealthCheck is the warden's periodic pass: verify the primary is
// alive and healthy (failing over if not), stand down any stale primary
// still claiming an older epoch, and re-adopt reachable followers the
// primary is not shipping to — the path a restarted member takes back
// into the replica set.
func (h *ShardHandle) HealthCheck() {
	h.mu.Lock()
	defer h.mu.Unlock()

	inc := h.cfg.Members[h.primary]
	st, err := h.probe(inc)
	if err != nil || st.Role != WelcomePrimary || !st.Healthy || st.Fenced {
		h.cfg.Logger.Warn("fleet: warden found primary unhealthy",
			"shard", h.cfg.Shard, "member", inc.Member, "err", err)
		if foErr := h.failoverLocked(h.epoch.Load()); foErr != nil {
			h.cfg.Logger.Warn("fleet: warden failover failed", "shard", h.cfg.Shard, "err", foErr)
			return
		}
		inc = h.cfg.Members[h.primary]
		if st, err = h.probe(inc); err != nil {
			return
		}
	}
	h.observeEpoch(st.Epoch)

	linked := make(map[int]bool, len(st.Links))
	for _, l := range st.Links {
		linked[l.Member] = true
	}
	for i, m := range h.cfg.Members {
		if i == h.primary {
			continue
		}
		ms, err := h.probe(m)
		if err != nil {
			continue // down or partitioned; next pass
		}
		if ms.Role == WelcomePrimary && ms.Epoch < h.epoch.Load() {
			h.cfg.Logger.Warn("fleet: warden demoting stale primary",
				"shard", h.cfg.Shard, "member", m.Member, "stale_epoch", ms.Epoch, "epoch", h.epoch.Load())
			if _, err := h.cfg.Net.ctl(h.cfg.Shard, m, ctlReq{demote: &demoteCmd{Epoch: h.epoch.Load()}}); err != nil {
				h.cfg.Logger.Warn("fleet: warden demote failed", "shard", h.cfg.Shard, "member", m.Member, "err", err)
				continue
			}
			ms.Role = WelcomeFollower
		}
		if ms.Role == WelcomeFollower && !linked[m.Member] {
			if _, err := h.cfg.Net.ctl(h.cfg.Shard, inc, ctlReq{adopt: &adoptCmd{
				Member: m.Member, Addr: m.shipAddr(),
			}}); err != nil {
				h.cfg.Logger.Warn("fleet: warden adopt failed", "shard", h.cfg.Shard, "member", m.Member, "err", err)
				continue
			}
			h.cfg.Logger.Info("fleet: warden re-adopted follower", "shard", h.cfg.Shard, "member", m.Member)
		}
	}
}

// Status probes the believed primary live and reports the shard's
// supervision view for the admin plane. err is non-nil when the primary
// cannot be reached (readiness then reports the shard not ready).
func (h *ShardHandle) Status() (primary MemberStatus, member int, failovers int, err error) {
	h.mu.Lock()
	inc := h.cfg.Members[h.primary]
	failovers = h.failovers
	h.mu.Unlock()
	st, err := h.probe(inc)
	return st, inc.Member, failovers, err
}

// Close releases the request channel.
func (h *ShardHandle) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.conn != nil {
		h.conn.Close()
		h.conn = nil
	}
}
