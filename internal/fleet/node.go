package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/wire"
)

// Node is one shard member — the fleet's only member engine: either the
// shard's primary (a live provider whose commit hook ships WAL groups
// to the followers) or a follower (a cold replica applying shipped
// groups into its own durable segment, promotable on command). Members
// reach each other through a Net: their own OS processes over TCP
// (Wire), or Nodes in one process (LocalNet).
//
// The Node owns the member's whole lifecycle across both roles:
//
//   - Every inbound channel opens with the role handshake (admit):
//     ship and request channels from stale epochs are refused before a
//     payload frame is exchanged with a fatal fenced error; a ship hello
//     from a NEWER epoch deposes a running primary on the spot — it
//     demotes to follower and lets the new primary bootstrap it over
//     the very same channel.
//   - Promotion (ctl) restores a provider from the follower's durable
//     segment at the commanded epoch — core.RestoreProvider underneath,
//     audit chain re-verified — then re-bootstraps the reachable
//     survivors; unreachable ones are skipped (the warden re-adopts
//     them later), so failover completes even while a replication link
//     is partitioned.
//   - Demotion (deposed by handshake, by a follower's fencing ack
//     mid-ship, or by explicit ctl command) fences and kills the local
//     provider, releases its store, and rejoins as a follower awaiting
//     adoption — a deposed primary is never resurrected.
//   - The durable node manifest records (role, epoch) at every
//     transition, so a SIGKILLed member restarts into the role it last
//     held and a deposed primary's restart cannot reopen its stale
//     lineage as primary: its bootstrap attempt is fenced by the
//     followers' handshakes and it demotes before serving anything.
type Node struct {
	cfg      NodeConfig
	logger   *slog.Logger
	manifest store.Backend
	state    store.Backend

	// helloEpoch/helloOffset feed ship-link handshakes. Atomics, not
	// n.mu: the handshake closure runs inside wire.Client (re)connects,
	// which Promote drives while holding n.mu.
	helloEpoch  atomic.Uint64
	helloOffset atomic.Uint64

	mu        sync.Mutex
	role      uint8 // WelcomePrimary or WelcomeFollower
	epoch     uint64
	primary   *core.Provider
	rep       *replicator
	follower  *Follower
	demotions int
}

// NodeConfig assembles one shard member.
type NodeConfig struct {
	// Shard and Member identify this member in the fleet topology.
	Shard, Member int

	// StartRole is the role a virgin data dir starts in: "primary" or
	// "follower". Once the node manifest exists, the manifest wins.
	StartRole string

	// Scheme is the quote-signature crypto profile this member runs
	// (zero value = RSA). Data-plane hellos from a different profile are
	// refused permanently: a shard must verify — and re-verify from the
	// audit chain — under one profile.
	Scheme cryptoutil.SchemeID

	// Epoch is the starting epoch for a virgin deployment (default 1).
	Epoch uint64

	// Followers are the ship endpoints a starting primary bootstraps
	// and replicates to.
	Followers []PeerAddr

	// NewBackend opens this member's durable backends: role "state"
	// (the WAL + snapshots) and "manifest" (the role/epoch pointer).
	NewBackend func(role string) (store.Backend, error)

	// Build constructs the shard's first primary at the given epoch
	// (keys, PAL approvals, seeded accounts), store not yet attached.
	Build func(epoch uint64) (*core.Provider, error)

	// Restore rebuilds a provider from a durable segment at the given
	// epoch — core.RestoreProvider plus non-state configuration.
	Restore func(epoch uint64, st *store.Store) (*core.Provider, error)

	// Kill, when set, is consulted by the primary's commit hook in both
	// phases of every batch, with the batch's stream offsets [from, to).
	// A non-nil error kills the provider without answering the batch
	// (faults.FleetPlan.Killer, in-process); KillAtOffsets instead
	// SIGKILLs the whole process and never returns.
	Kill func(phase faults.KillPhase, from, to uint64) error

	// Net reaches the other members: Wire (the default) or a LocalNet.
	Net Net

	Metrics *obs.Registry
	Logger  *slog.Logger
	Clock   sim.Clock
}

// Node role names (StartRole and the node manifest).
const (
	NodeRolePrimary  = "primary"
	NodeRoleFollower = "follower"
)

// errNotPrimary marks a request hitting a member that does not serve
// the primary role; classified as a failover frame on the wire.
var errNotPrimary = errors.New("fleet: member is not the primary")

// NewNode starts one shard member. A virgin data dir
// starts in cfg.StartRole; an existing one resumes the manifest's
// recorded role and epoch. A restarting primary whose lineage was
// superseded while it was down is fenced by its followers' handshakes
// during re-bootstrap and comes up demoted — a follower awaiting
// adoption — instead of resurrecting the stale lineage.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.WallClock{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Net == nil {
		cfg.Net = Wire
	}
	if cfg.NewBackend == nil || cfg.Build == nil || cfg.Restore == nil {
		return nil, fmt.Errorf("fleet: node %d/%d: NewBackend, Build, and Restore are required", cfg.Shard, cfg.Member)
	}

	n := &Node{cfg: cfg, logger: cfg.Logger}

	mb, err := cfg.NewBackend("manifest")
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d/%d: manifest backend: %w", cfg.Shard, cfg.Member, err)
	}
	n.manifest = mb
	man, found, err := ReadNodeManifest(mb)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d/%d: read manifest: %w", cfg.Shard, cfg.Member, err)
	}

	role, epoch := cfg.StartRole, cfg.Epoch
	if found {
		role, epoch = man.Role, man.Epoch
		n.logger.Info("node resuming manifest role", "role", role, "epoch", epoch)
	}

	sb, err := cfg.NewBackend("state")
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d/%d: state backend: %w", cfg.Shard, cfg.Member, err)
	}
	n.state = sb

	switch role {
	case NodeRoleFollower:
		f := NewFollower(cfg.Shard, cfg.Member, sb)
		f.raiseEpoch(epoch)
		n.role, n.epoch, n.follower = WelcomeFollower, epoch, f
		n.helloEpoch.Store(epoch)
		if !found {
			if err := n.writeManifestLocked(); err != nil {
				return nil, err
			}
		}
		return n, nil

	case NodeRolePrimary:
		st, err := store.Open(sb)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d/%d: open state store: %w", cfg.Shard, cfg.Member, err)
		}
		var prov *core.Provider
		if st.Snapshot() != nil {
			prov, err = cfg.Restore(epoch, st)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %d/%d: restore primary: %w", cfg.Shard, cfg.Member, err)
			}
		} else {
			prov, err = cfg.Build(epoch)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %d/%d: build primary: %w", cfg.Shard, cfg.Member, err)
			}
			if err := prov.AttachStore(st); err != nil {
				return nil, fmt.Errorf("fleet: node %d/%d: attach store: %w", cfg.Shard, cfg.Member, err)
			}
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.role, n.epoch = WelcomePrimary, epoch
		n.helloEpoch.Store(epoch)
		if !found {
			if err := n.writeManifestLocked(); err != nil {
				return nil, err
			}
		}
		// Restart resets the ship stream to 0 and re-bootstraps: the
		// followers' segments are re-seeded from this primary's full
		// durable state. If the lineage was superseded while this member
		// was down, the very first bootstrap is fenced and wireLocked
		// demotes us.
		if err := n.wireLocked(prov, 0, cfg.Followers, cfg.Net.bootWait(false)); err != nil {
			if errors.Is(err, ErrStaleEpoch) {
				n.logger.Warn("deposed primary fenced at rejoin; demoted to follower",
					"epoch", epoch, "now", n.epoch)
				return n, nil
			}
			return nil, err
		}
		return n, nil

	default:
		return nil, fmt.Errorf("fleet: node %d/%d: unknown start role %q", cfg.Shard, cfg.Member, role)
	}
}

// wireLocked installs prov as this node's primary: ship links to every
// peer, bootstrap at stream offset upTo, commit hook armed. A peer that
// fences the bootstrap demotes this node (returns ErrStaleEpoch); a
// bootstrap that can never succeed (a segment too large for one frame)
// fails the whole wiring; a peer that stays unreachable past
// perPeerWait is skipped with a loud log — the warden re-adopts it once
// it is back. Caller holds n.mu.
func (n *Node) wireLocked(prov *core.Provider, upTo uint64, peers []PeerAddr, perPeerWait time.Duration) error {
	rep := &replicator{
		shard:   n.cfg.Shard,
		epoch:   n.epoch,
		offset:  upTo,
		metrics: n.cfg.Metrics,
		names:   newRepMetricNames(n.cfg.Shard),
		clock:   n.cfg.Clock,
	}
	n.helloOffset.Store(upTo)

	var boot []byte
	err := prov.QuiescedSegment(func(seg store.Segment) error {
		boot = encodeBootstrap(bootstrapFrame{
			Epoch: n.epoch, UpTo: upTo, Gen: seg.Generation,
			State: seg.State, Records: seg.Records,
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("fleet: node %d/%d: read segment: %w", n.cfg.Shard, n.cfg.Member, err)
	}

	for _, p := range peers {
		conn := n.cfg.Net.ship(n, p)
		err := n.bootstrapPeer(rep, conn, p.Member, boot, perPeerWait)
		if err != nil {
			conn.Close()
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrStaleEpoch):
			// A follower serves a newer lineage: this primary is deposed.
			rep.close()
			n.demoteLocked(0)
			return fmt.Errorf("fleet: node %d/%d: %w", n.cfg.Shard, n.cfg.Member, err)
		case errors.Is(err, netsim.ErrFrameTooLarge):
			rep.close()
			prov.Kill()
			prov.Store().Close()
			return fmt.Errorf("fleet: node %d/%d: bootstrap of member %d can never succeed: %w",
				n.cfg.Shard, n.cfg.Member, p.Member, err)
		default:
			n.count("fleet.bootstrap_skipped")
			n.logger.Warn("follower unreachable during bootstrap; skipped (warden will re-adopt)",
				"member", p.Member, "addr", p.Addr, "err", err)
		}
	}

	n.armHookLocked(prov, rep)
	n.primary = prov
	n.rep = rep
	return nil
}

// bootstrapPeer retries one follower's bootstrap for up to wait
// (processes start in any order); a refusal no retry can fix — fencing,
// a gap, an oversize frame — aborts at once.
func (n *Node) bootstrapPeer(rep *replicator, conn memberConn, member int, boot []byte, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		err := rep.bootstrap(conn, member, boot)
		if err == nil || errors.Is(err, ErrStaleEpoch) || errors.Is(err, ErrOffsetGap) ||
			errors.Is(err, netsim.ErrFrameTooLarge) || !time.Now().Before(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// armHookLocked installs the commit hook: the configured kill in both
// phases, synchronous shipping, and demote-on-fence.
func (n *Node) armHookLocked(prov *core.Provider, rep *replicator) {
	kill := n.cfg.Kill
	prov.SetCommitHook(func(groups [][]byte) error {
		off := rep.frontier()
		next := off + uint64(len(groups))
		if kill != nil {
			if err := kill(faults.KillBeforeShip, off, next); err != nil {
				return err
			}
		}
		if err := rep.ship(groups); err != nil {
			if errors.Is(err, ErrStaleEpoch) {
				// A follower fenced us mid-run: a newer lineage exists.
				// The hook error kills this provider; the demotion makes
				// the deposition durable and rejoins us as a follower.
				go n.Demote(0)
			}
			return err
		}
		n.helloOffset.Store(next)
		if kill != nil {
			return kill(faults.KillAfterShip, off, next)
		}
		return nil
	})
}

// KillAtOffsets arms the process fleet's deterministic chaos for
// NodeConfig.Kill: the member SIGKILLs itself immediately before (after)
// shipping the batch that crosses the absolute stream offset before
// (after); 0 disarms. A promoted primary resumes the stream at its
// applied offset, so offsets already behind it never fire.
func KillAtOffsets(before, after uint64, logger *slog.Logger) func(faults.KillPhase, uint64, uint64) error {
	if before == 0 && after == 0 {
		return nil
	}
	return func(phase faults.KillPhase, from, to uint64) error {
		at := before
		if phase == faults.KillAfterShip {
			at = after
		}
		if at > 0 && from < at && to >= at {
			logger.Error("chaos: self-SIGKILL", "phase", phase.String(), "offset", from, "kill_at", at)
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL cannot be caught
		}
		return nil
	}
}

// shipHello is the role handshake a ship link opens with, built from the
// node's LIVE epoch and frontier.
func (n *Node) shipHello() Hello {
	return Hello{
		Kind:   HelloShip,
		Scheme: uint8(n.cfg.Scheme),
		Shard:  uint32(n.cfg.Shard),
		Member: uint32(n.cfg.Member),
		Epoch:  n.helloEpoch.Load(),
		Offset: n.helloOffset.Load(),
	}
}

// shipWelcomed checks a follower's welcome. Defense in depth: a welcome
// from a newer lineage means we are deposed even if the peer chose not
// to refuse us.
func (n *Node) shipWelcomed(h Hello, w Welcome) error {
	if w.Epoch > h.Epoch {
		go n.Demote(w.Epoch)
		return &netsim.RemoteError{
			Msg:  fmt.Sprintf("fleet: peer serves epoch %d, ours is %d", w.Epoch, h.Epoch),
			Code: netsim.ErrCodeFenced,
		}
	}
	return nil
}

// Accept is the node's wire.Server handshake hook: it reads the Hello,
// runs the admission decision, and answers with the Welcome or the
// refusal's error frame.
func (n *Node) Accept(conn net.Conn) (netsim.Handler, error) {
	frame, err := netsim.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("fleet: read hello: %w", err)
	}
	h, err := DecodeHello(frame)
	if err != nil {
		return nil, refuseHello(conn, netsim.ErrCodePermanent, err)
	}
	w, handler, ref := n.admit(h)
	if ref != nil {
		return nil, refuseHello(conn, ref.code, ref.err)
	}
	if err := netsim.WriteFrame(conn, EncodeWelcome(w)); err != nil {
		return nil, fmt.Errorf("fleet: send welcome: %w", err)
	}
	return handler, nil
}

// refusal is an admission verdict against a Hello, with the wire error
// code the refused caller receives.
type refusal struct {
	code uint8
	err  error
}

// remote is the refusal as the caller sees it, over either backend.
func (r *refusal) remote() error { return &netsim.RemoteError{Msg: r.err.Error(), Code: r.code} }

// admit is the socket-free admission decision on one Hello: it
// classifies the channel, refuses stale epochs (fenced) and wrong
// shards or profiles (permanent), lets a ship hello from a NEWER epoch
// depose a running primary — it demotes and lets the new primary
// bootstrap it over this very channel — and returns this member's
// Welcome plus the channel's handler.
func (n *Node) admit(h Hello) (Welcome, netsim.Handler, *refusal) {
	refuse := func(code uint8, err error) (Welcome, netsim.Handler, *refusal) {
		if code == netsim.ErrCodeFenced {
			n.count("fleet.fenced_frames")
		}
		return Welcome{}, nil, &refusal{code: code, err: err}
	}
	if int(h.Shard) != n.cfg.Shard {
		return refuse(netsim.ErrCodePermanent,
			fmt.Errorf("fleet: hello for shard %d, this member serves shard %d", h.Shard, n.cfg.Shard))
	}
	// Data-plane channels must agree on the crypto profile: a router or
	// shipping primary running a different scheme would hand this member
	// evidence (or an audit chain) it cannot verify. Control channels are
	// exempt — probes and promotions carry no attestation traffic.
	if h.Kind != HelloCtl && h.Scheme != uint8(n.cfg.Scheme) {
		n.count("fleet.scheme_mismatch")
		return refuse(netsim.ErrCodePermanent,
			fmt.Errorf("fleet: crypto profile mismatch: hello runs %s, member %d runs %s",
				cryptoutil.SchemeID(h.Scheme), n.cfg.Member, n.cfg.Scheme))
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	floor := n.epochFloorLocked()
	var handler netsim.Handler

	switch h.Kind {
	case HelloShip:
		if n.role == WelcomePrimary {
			if h.Epoch <= n.epoch {
				return refuse(netsim.ErrCodeFenced,
					fmt.Errorf("fleet: member %d is primary at epoch %d; refusing ship hello at epoch %d",
						n.cfg.Member, n.epoch, h.Epoch))
			}
			n.logger.Warn("deposed by ship handshake from newer epoch",
				"ours", n.epoch, "theirs", h.Epoch, "from_member", h.Member)
			n.demoteLocked(h.Epoch)
		} else if h.Epoch < floor {
			return refuse(netsim.ErrCodeFenced,
				fmt.Errorf("fleet: member %d serves epoch %d; refusing ship hello at stale epoch %d",
					n.cfg.Member, floor, h.Epoch))
		}
		handler = n.handleShip

	case HelloRouter:
		if h.Epoch > n.epoch && n.role == WelcomePrimary {
			// The router has observed a newer lineage than ours: deposed.
			n.logger.Warn("deposed by router handshake from newer epoch", "ours", n.epoch, "theirs", h.Epoch)
			n.demoteLocked(h.Epoch)
		}
		switch {
		case n.role != WelcomePrimary || n.primary == nil:
			return refuse(netsim.ErrCodeFailover,
				fmt.Errorf("%w: member %d (epoch %d)", errNotPrimary, n.cfg.Member, floor))
		case n.primary.Fenced():
			return refuse(netsim.ErrCodeFenced,
				fmt.Errorf("fleet: member %d primary is fenced at epoch %d", n.cfg.Member, n.epoch))
		case n.primary.Dead():
			return refuse(netsim.ErrCodeFailover,
				fmt.Errorf("fleet: member %d primary is dead at epoch %d", n.cfg.Member, n.epoch))
		}
		handler = n.handleRequest

	case HelloCtl:
		handler = n.handleCtl

	default:
		return refuse(netsim.ErrCodePermanent, fmt.Errorf("fleet: unknown hello kind %d", h.Kind))
	}

	w := Welcome{Role: n.role, Scheme: uint8(n.cfg.Scheme), Epoch: n.epochFloorLocked()}
	switch {
	case n.role == WelcomePrimary && n.rep != nil:
		w.Applied = n.rep.frontier()
	case n.follower != nil:
		w.Applied = n.follower.Applied()
	}
	return w, handler, nil
}

// epochFloorLocked is the newest epoch this member has accepted: its
// own, or (as a follower) any newer one learned from shipped frames.
func (n *Node) epochFloorLocked() uint64 {
	e := n.epoch
	if n.follower != nil {
		if fe := n.follower.Epoch(); fe > e {
			e = fe
		}
	}
	return e
}

// handleShip serves replication frames on an admitted ship channel.
// The follower's ack discipline (offset dedupe, gap refusal, per-frame
// epoch fencing) does the heavy lifting; fencing acks are counted so
// the admin plane sees zombies being refused.
func (n *Node) handleShip(req []byte) ([]byte, error) {
	n.mu.Lock()
	f := n.follower
	role := n.role
	n.mu.Unlock()
	if role != WelcomeFollower || f == nil {
		n.count("fleet.fenced_frames")
		return encodeAck(ackFrame{Epoch: n.helloEpoch.Load(), Applied: 0, Status: ackFenced}), nil
	}
	resp, err := f.Handle(req)
	if err == nil && isFencedAck(resp) {
		n.count("fleet.fenced_frames")
	}
	return resp, err
}

// handleRequest serves client frames on an admitted router channel.
func (n *Node) handleRequest(req []byte) ([]byte, error) {
	n.mu.Lock()
	p := n.primary
	role := n.role
	n.mu.Unlock()
	if role != WelcomePrimary || p == nil {
		return nil, fmt.Errorf("%w: member %d", errNotPrimary, n.cfg.Member)
	}
	return p.Handle(req)
}

// handleCtl serves ctl frames on an admitted control channel.
func (n *Node) handleCtl(req []byte) ([]byte, error) {
	cmd, err := decodeCtlReq(req)
	if err != nil {
		return nil, err
	}
	st, err := n.control(cmd)
	if err != nil {
		return nil, err
	}
	return encodeStatusResp(st), nil
}

// control executes one control command (status, promote, adopt,
// demote) and answers with this member's status after it.
func (n *Node) control(cmd ctlReq) (MemberStatus, error) {
	var err error
	switch {
	case cmd.promote != nil:
		return n.Promote(*cmd.promote)
	case cmd.adopt != nil:
		err = n.Adopt(*cmd.adopt)
	case cmd.demote != nil:
		err = n.Demote(cmd.demote.Epoch)
	}
	if err != nil {
		return MemberStatus{}, err
	}
	return n.Status(), nil
}

// Status reports this member's current role, epoch, stream position,
// health, and (for a primary) per-link replication freshness.
func (n *Node) Status() MemberStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.statusLocked()
}

func (n *Node) statusLocked() MemberStatus {
	st := MemberStatus{Member: n.cfg.Member, Role: n.role, Epoch: n.epochFloorLocked()}
	if n.role == WelcomePrimary && n.primary != nil {
		st.Fenced = n.primary.Fenced()
		st.Healthy = !n.primary.Fenced() && !n.primary.Dead() && n.primary.Health().Ready
		if n.rep != nil {
			st.Applied = n.rep.frontier()
			st.Links = n.rep.health()
		}
		return st
	}
	if n.follower != nil {
		st.Applied = n.follower.Applied()
		st.Healthy = true
	}
	return st
}

// Promote executes a ctlPromote: restore a primary at cmd.NewEpoch from
// this follower's durable segment and re-bootstrap the reachable
// survivors at the applied offset. Idempotent: a member already primary
// at (or past) the commanded epoch reports success without doing
// anything; a command older than the member's lineage is fenced.
func (n *Node) Promote(cmd promoteCmd) (MemberStatus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == WelcomePrimary && n.epoch >= cmd.NewEpoch {
		return n.statusLocked(), nil
	}
	if n.role != WelcomeFollower || n.follower == nil {
		return MemberStatus{}, fmt.Errorf("fleet: member %d cannot promote: not a follower", n.cfg.Member)
	}
	if floor := n.epochFloorLocked(); floor >= cmd.NewEpoch {
		return MemberStatus{}, fmt.Errorf("%w: promote to epoch %d but member %d already serves %d",
			ErrStaleEpoch, cmd.NewEpoch, n.cfg.Member, floor)
	}

	applied := n.follower.Applied()
	prov, err := n.follower.Promote(func(st *store.Store) (*core.Provider, error) {
		return n.cfg.Restore(cmd.NewEpoch, st)
	})
	if err != nil {
		return MemberStatus{}, err
	}

	n.role = WelcomePrimary
	n.epoch = cmd.NewEpoch
	n.helloEpoch.Store(cmd.NewEpoch)

	// The manifest must record the promotion before this primary
	// answers anyone: a crash right after promotion must restart into
	// the promoted lineage, not re-follow the dead one.
	if err := n.writeManifestLocked(); err != nil {
		return MemberStatus{}, err
	}

	if err := n.wireLocked(prov, applied, cmd.Survivors, n.cfg.Net.bootWait(true)); err != nil {
		return MemberStatus{}, err
	}
	n.count("fleet.promotions")
	n.logger.Info("promoted to primary", "shard", n.cfg.Shard, "member", n.cfg.Member,
		"epoch", cmd.NewEpoch, "applied", applied, "links", len(n.rep.health()))
	return n.statusLocked(), nil
}

// Adopt executes a ctlAdopt: bootstrap one follower into the replica
// set from the primary's quiesced segment. Idempotent for members
// already linked.
func (n *Node) Adopt(cmd adoptCmd) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != WelcomePrimary || n.primary == nil || n.rep == nil {
		return fmt.Errorf("%w: member %d cannot adopt", errNotPrimary, n.cfg.Member)
	}
	for _, l := range n.rep.health() {
		if l.Member == cmd.Member {
			return nil
		}
	}
	conn := n.cfg.Net.ship(n, PeerAddr{Member: cmd.Member, Addr: cmd.Addr})
	err := n.primary.QuiescedSegment(func(seg store.Segment) error {
		boot := encodeBootstrap(bootstrapFrame{
			Epoch: n.epoch, UpTo: n.rep.frontier(), Gen: seg.Generation,
			State: seg.State, Records: seg.Records,
		})
		return n.rep.bootstrap(conn, cmd.Member, boot)
	})
	if err != nil {
		conn.Close()
		return fmt.Errorf("fleet: adopt member %d: %w", cmd.Member, err)
	}
	n.count("fleet.adoptions")
	n.logger.Info("adopted follower", "member", cmd.Member, "addr", cmd.Addr, "epoch", n.epoch)
	return nil
}

// Demote stands a primary down: fence and kill the provider, release
// its store, and rejoin as a follower awaiting adoption. observedEpoch
// is the newer epoch that deposed us (0 = unknown: a follower fenced a
// ship mid-run). A primary whose epoch is already >= a non-zero
// observation is current and no-ops; a member already following only
// raises its fence floor.
func (n *Node) Demote(observedEpoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != WelcomePrimary {
		if n.follower != nil && observedEpoch > 0 {
			n.follower.raiseEpoch(observedEpoch)
			if observedEpoch > n.epoch {
				n.epoch = observedEpoch
				n.helloEpoch.Store(observedEpoch)
			}
		}
		return nil
	}
	if observedEpoch > 0 && n.epoch >= observedEpoch {
		return nil // we ARE the current lineage
	}
	n.demoteLocked(observedEpoch)
	return nil
}

// demoteLocked performs the deposition. Caller holds n.mu.
func (n *Node) demoteLocked(newEpoch uint64) {
	if prov := n.primary; prov != nil {
		prov.Fence()
		prov.Kill()
		if st := prov.Store(); st != nil {
			if err := st.Close(); err != nil {
				n.logger.Warn("closing deposed primary store", "err", err)
			}
		}
	}
	n.rep.close()
	n.primary, n.rep = nil, nil
	n.role = WelcomeFollower
	if newEpoch > n.epoch {
		n.epoch = newEpoch
	}
	f := NewFollower(n.cfg.Shard, n.cfg.Member, n.state)
	f.raiseEpoch(n.epoch)
	n.follower = f
	n.demotions++
	n.helloEpoch.Store(n.epoch)
	n.count("fleet.demotions")
	if err := n.writeManifestLocked(); err != nil {
		n.logger.Error("writing node manifest after demotion", "err", err)
	}
	n.logger.Warn("demoted to follower", "shard", n.cfg.Shard, "member", n.cfg.Member, "epoch", n.epoch)
}

// writeManifestLocked persists (role, epoch). Caller holds n.mu or is
// inside NewNode before the node is shared.
func (n *Node) writeManifestLocked() error {
	role := NodeRoleFollower
	if n.role == WelcomePrimary {
		role = NodeRolePrimary
	}
	if err := WriteNodeManifest(n.manifest, NodeManifest{Epoch: n.epoch, Role: role}); err != nil {
		return fmt.Errorf("fleet: node %d/%d: write manifest: %w", n.cfg.Shard, n.cfg.Member, err)
	}
	return nil
}

// Classify maps this node's handler errors to wire error codes: fencing
// is fatal (the sender's epoch is stale for good), a dead or demoted
// member is a failover frame (route around me), everything else keeps
// the transport's default classification.
func (n *Node) Classify(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrFenced), errors.Is(err, ErrStaleEpoch):
		return netsim.ErrCodeFenced
	case errors.Is(err, store.ErrCrashed),
		errors.Is(err, faults.ErrKilled),
		errors.Is(err, ErrReplication),
		errors.Is(err, errNotPrimary):
		return netsim.ErrCodeFailover
	}
	return wire.DefaultClassify(err)
}

// Finish flushes and closes this member's durable state on graceful
// shutdown: a live primary snapshots and closes its store, a follower
// closes its segment. Safe on members whose provider already died.
func (n *Node) Finish() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rep.close()
	if n.role == WelcomePrimary && n.primary != nil {
		if st := n.primary.Store(); st != nil {
			if err := n.primary.SnapshotNow(); err != nil && !errors.Is(err, store.ErrCrashed) {
				return fmt.Errorf("fleet: node %d/%d: final snapshot: %w", n.cfg.Shard, n.cfg.Member, err)
			}
			return st.Close()
		}
		return nil
	}
	if n.follower != nil {
		return n.follower.Close()
	}
	return nil
}

// Demotions reports how many times this member stood down (tests).
func (n *Node) Demotions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.demotions
}

// Provider returns the member's live provider while it serves as
// primary, else nil.
func (n *Node) Provider() *core.Provider {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// Role reports the member's current role name.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == WelcomePrimary {
		return NodeRolePrimary
	}
	return NodeRoleFollower
}

// count bumps a metric counter (nil-registry safe).
func (n *Node) count(name string) {
	if n.cfg.Metrics != nil {
		n.cfg.Metrics.Counter(name).Inc()
	}
}

// NodeManifest is the durable (role, epoch) pointer a shard-member
// process restarts from.
type NodeManifest struct {
	Epoch uint64
	Role  string // NodeRolePrimary or NodeRoleFollower
}

// nodeManifestMagic guards against interpreting foreign bytes ("FLN1").
const nodeManifestMagic uint32 = 0x464C_4E31

const (
	nodeManifestName = "NODE"
	nodeManifestTmp  = nodeManifestName + ".tmp"
)

// ReadNodeManifest loads a member's manifest; ok is false on a virgin
// backend. Exported for post-mortem harnesses that audit a dead fleet's
// data dirs.
func ReadNodeManifest(b store.Backend) (NodeManifest, bool, error) {
	data, err := b.ReadFile(nodeManifestName)
	if errors.Is(err, store.ErrNotExist) {
		return NodeManifest{}, false, nil
	}
	if err != nil {
		return NodeManifest{}, false, err
	}
	r := cryptoutil.NewReader(data)
	if magic := r.Uint32(); r.Err() == nil && magic != nodeManifestMagic {
		return NodeManifest{}, false, fmt.Errorf("fleet: node manifest: bad magic %#x", magic)
	}
	m := NodeManifest{Epoch: r.Uint64(), Role: r.String()}
	if err := r.ExpectEOF(); err != nil {
		return NodeManifest{}, false, fmt.Errorf("fleet: node manifest: %w", err)
	}
	return m, true, nil
}

// WriteNodeManifest durably replaces a member's manifest: temp write,
// data sync, atomic rename (the backend makes the rename itself durable
// — DirBackend fsyncs the parent directory). A crash at any point
// leaves either the old manifest or the new one, never a torn mix.
func WriteNodeManifest(b store.Backend, m NodeManifest) error {
	buf := cryptoutil.NewBuffer(32)
	buf.PutUint32(nodeManifestMagic)
	buf.PutUint64(m.Epoch)
	buf.PutString(m.Role)
	f, err := b.Create(nodeManifestTmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return b.Rename(nodeManifestTmp, nodeManifestName)
}
