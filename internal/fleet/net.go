package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"unitp/internal/netsim"
	"unitp/internal/sim"
	"unitp/internal/wire"
)

// Net is the one seam through which a shard's members reach each other
// and its handle reaches them. Two backends implement it, the way a
// pluggable crypto provider puts one narrow interface over native and
// library code:
//
//   - Wire: every member is its own OS process. Links are supervised
//     wire.Clients that open with the role handshake (Hello/Welcome) on
//     every (re)connect, replication links retry under the ship retry
//     policy, and control commands travel as ctl frames.
//   - LocalNet: every member is a Node in this process. A link makes the
//     member's admission decision on the same Hello once, when first
//     used, then calls the admitted handler directly; control commands
//     are direct calls on the same Node methods. No sockets, no retries,
//     and no encoding beyond the replication frames themselves.
//
// Everything above the seam — the commit hook, bootstrap, promotion,
// adoption, demotion, and the handle's failover — is the same code for
// both.
type Net interface {
	// ship opens primary n's replication link to follower p.
	ship(n *Node, p PeerAddr) memberConn

	// request opens h's client-request channel to member m.
	request(h *ShardHandle, m MemberAddr) memberConn

	// ctl runs one control command on member m of shard and returns
	// the member's status after it.
	ctl(shard int, m MemberAddr, cmd ctlReq) (MemberStatus, error)

	// bootWait is how long a starting (or, with promote, a promoting)
	// primary keeps retrying a follower it cannot reach yet.
	bootWait(promote bool) time.Duration

	// node returns the in-process member, or nil over the wire.
	node(shard, member int) *Node
}

// memberConn is one open link to a shard member.
type memberConn interface {
	RoundTrip(req []byte) ([]byte, error)
	Close() error
}

// Wire is the process-per-member backend.
var Wire Net = wireNet{boot: 10 * time.Second, promote: 2 * time.Second, ctlTimeout: 2 * time.Second}

// wireNet carries the role handshake, replication, and ctl frames over
// TCP. boot and promote are the per-follower bootstrap budgets
// (processes start in any order; a partitioned survivor is skipped, not
// waited out); ctlTimeout is the per-probe/per-command budget.
type wireNet struct {
	boot, promote, ctlTimeout time.Duration
}

func (w wireNet) bootWait(promote bool) time.Duration {
	if promote {
		return w.promote
	}
	return w.boot
}

func (wireNet) node(int, int) *Node { return nil }

// ship builds the supervised replication client to one peer. The role
// handshake reads the node's LIVE epoch and frontier, so every
// reconnect re-asserts the current lineage — a link that dropped across
// a failover can never resume acking at the stale epoch.
func (wireNet) ship(n *Node, p PeerAddr) memberConn {
	client := wire.NewClient(wire.ClientConfig{
		Addr: p.Addr,
		Handshake: func(conn net.Conn) error {
			h := n.shipHello()
			w, err := sendHello(conn, h)
			if err != nil {
				return err
			}
			return n.shipWelcomed(h, w)
		},
		ResponseTimeout: 5 * time.Second,
		// Replication links redial aggressively: the reconnect pause must
		// stay below the ship retry backoff, or a single flap burns the
		// whole retry budget against the backoff window and needlessly
		// kills the primary.
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 25 * time.Millisecond,
		Metrics:      n.cfg.Metrics,
	})
	rt := netsim.NewRetryTransport(client, shipRetry(), sim.WallClock{}, sim.NewRand(uint64(0x5319+p.Member)))
	return retryConn{rt: rt, client: client}
}

// shipRetry is the replication retry policy: quick, tightly bounded
// retransmissions. A link flap heals transparently (reconnect +
// re-handshake + offset-deduped resend); a link dead past the deadline
// kills the primary, which is the fleet's consistency-over-availability
// contract.
func shipRetry() netsim.RetryPolicy {
	return netsim.RetryPolicy{
		MaxAttempts:    8,
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.2,
		AttemptTimeout: 2 * time.Second,
		Deadline:       3 * time.Second,
	}
}

// retryConn is a wire link wrapped in a retry policy.
type retryConn struct {
	rt     netsim.Transport
	client *wire.Client
}

func (c retryConn) RoundTrip(req []byte) ([]byte, error) { return c.rt.RoundTrip(req) }
func (c retryConn) Close() error                         { return c.client.Close() }

// request opens the supervised request channel to one member. The role
// handshake re-runs on every reconnect, carrying the handle's newest
// observed epoch: a handshake that lands on a deposed primary both
// deposes it (it demotes on seeing the newer epoch) and tells the
// handle to route around it.
func (wireNet) request(h *ShardHandle, m MemberAddr) memberConn {
	client := wire.NewClient(wire.ClientConfig{
		Addr: m.Addr,
		Handshake: func(conn net.Conn) error {
			w, err := sendHello(conn, h.routerHello())
			if err != nil {
				return err
			}
			return h.welcomed(m.Member, w)
		},
		Metrics: h.cfg.Metrics,
	})
	return wireRequest{Client: client, shard: h.cfg.Shard, member: m.Member}
}

// wireRequest surfaces transport-level failures (conn down, dial
// refused, response timeout) as ErrPrimaryUnreachable — a failover
// trigger. Error frames from the far side pass through with their wire
// code intact, so fenced and failover codes trip FailoverTrigger while
// busy/retryable codes reach the client unharmed.
type wireRequest struct {
	*wire.Client
	shard, member int
}

func (c wireRequest) RoundTrip(req []byte) ([]byte, error) {
	resp, err := c.Client.RoundTrip(req)
	if err == nil {
		return resp, nil
	}
	var remote *netsim.RemoteError
	if errors.As(err, &remote) || errors.Is(err, wire.ErrPipelineFull) {
		// A refusal or local backpressure, not a sick primary.
		return nil, err
	}
	return nil, fmt.Errorf("%w: shard %d member %d: %v", ErrPrimaryUnreachable, c.shard, c.member, err)
}

// ctl sends one command over a one-shot control connection. Promotion
// re-bootstraps survivors within the member's promote budget, and
// adoption bootstraps one follower, so both get room beyond the probe
// timeout.
func (w wireNet) ctl(shard int, m MemberAddr, cmd ctlReq) (MemberStatus, error) {
	timeout := w.ctlTimeout
	switch {
	case cmd.promote != nil:
		timeout += time.Duration(len(cmd.promote.Survivors)) * 5 * time.Second
	case cmd.adopt != nil:
		timeout += 5 * time.Second
	}
	resp, err := ctlRoundTrip(m.Addr, shard, encodeCtlReq(cmd), timeout)
	if err != nil {
		return MemberStatus{}, err
	}
	return decodeStatusResp(resp)
}

// Probe asks one member process for its status over the control
// channel — exported for harnesses and operational tooling.
func Probe(addr string, shard int, timeout time.Duration) (MemberStatus, error) {
	return wireNet{ctlTimeout: timeout}.ctl(shard, MemberAddr{Addr: addr}, ctlReq{})
}

// LocalNet is the in-process backend: it runs every member of every
// shard as a Node in this process and links them by direct calls.
type LocalNet struct {
	// Link, when set, carries each replication link — how fault-injected
	// fleets put a netsim.Pipe with a faults.FleetPlan injector between
	// a primary and one follower member. nil calls the follower directly.
	Link func(shard, member int, h netsim.Handler) netsim.Transport

	mu    sync.Mutex
	nodes map[[2]int]*Node
}

// StartShard runs one shard's members on ln — member 0 a virgin
// primary, members 1..followers its followers — and returns the shard's
// handle. member(m) supplies each member's NodeConfig; StartShard sets
// the topology fields (Shard, Member, StartRole, Followers, Net) and the
// handle's Shard, Members, and Net. Every member lists all the others
// as followers, so whichever one a restart finds primary re-seeds the
// rest. Members start highest first, so a virgin primary finds its
// followers running; when a restart finds roles moved by an earlier
// failover, one health pass adopts the primary and any follower it
// could not reach at start.
func (ln *LocalNet) StartShard(shard, followers int, member func(m int) NodeConfig, hc ShardHandleConfig) (*ShardHandle, error) {
	hc.Shard, hc.Net, hc.Members = shard, ln, nil
	for m := 0; m <= followers; m++ {
		hc.Members = append(hc.Members, MemberAddr{Member: m})
	}
	for m := followers; m >= 0; m-- {
		cfg := member(m)
		cfg.Shard, cfg.Member, cfg.Net = shard, m, ln
		cfg.StartRole = NodeRoleFollower
		if m == 0 {
			cfg.StartRole = NodeRolePrimary
		}
		cfg.Followers = nil
		for _, p := range hc.Members {
			if p.Member != m {
				cfg.Followers = append(cfg.Followers, PeerAddr{Member: p.Member})
			}
		}
		if _, err := ln.join(cfg); err != nil {
			return nil, err
		}
	}
	h, err := NewShardHandle(hc)
	if err != nil {
		return nil, err
	}
	h.HealthCheck()
	return h, nil
}

// join starts one member on ln and makes it reachable.
func (ln *LocalNet) join(cfg NodeConfig) (*Node, error) {
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.nodes == nil {
		ln.nodes = map[[2]int]*Node{}
	}
	ln.nodes[[2]int{cfg.Shard, cfg.Member}] = n
	return n, nil
}

// Finish flushes and closes every member's durable state (Node.Finish).
func (ln *LocalNet) Finish() error {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	var errs []error
	for _, n := range ln.nodes {
		errs = append(errs, n.Finish())
	}
	return errors.Join(errs...)
}

func (ln *LocalNet) bootWait(bool) time.Duration { return 0 }

func (ln *LocalNet) node(shard, member int) *Node {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return ln.nodes[[2]int{shard, member}]
}

func (ln *LocalNet) ship(n *Node, p PeerAddr) memberConn {
	c := &localConn{
		net: ln, shard: n.cfg.Shard, member: p.Member,
		hello: n.shipHello, welcomed: n.shipWelcomed,
	}
	if ln.Link == nil {
		return c
	}
	return pipedConn{ln.Link(n.cfg.Shard, p.Member, c.RoundTrip)}
}

func (ln *LocalNet) request(h *ShardHandle, m MemberAddr) memberConn {
	return &localConn{
		net: ln, shard: h.cfg.Shard, member: m.Member,
		hello:    h.routerHello,
		welcomed: func(_ Hello, w Welcome) error { return h.welcomed(m.Member, w) },
	}
}

func (ln *LocalNet) ctl(shard int, m MemberAddr, cmd ctlReq) (MemberStatus, error) {
	n := ln.node(shard, m.Member)
	if n == nil {
		return MemberStatus{}, errNotRunning(shard, m.Member)
	}
	return n.control(cmd)
}

// errNotRunning is the in-process equivalent of a refused dial.
func errNotRunning(shard, member int) error {
	return fmt.Errorf("%w: shard %d member %d is not running", netsim.ErrReset, shard, member)
}

// localConn is one in-process link. The member's admission decision on
// the caller's Hello runs when the link is first used — a wire link's
// connect — and every later round trip calls the admitted handler
// directly. A refusal reaches the caller as the same *netsim.RemoteError
// a wire link would deliver, and the next round trip asks again.
type localConn struct {
	net           *LocalNet
	shard, member int
	hello         func() Hello
	welcomed      func(Hello, Welcome) error

	mu      sync.Mutex
	handler netsim.Handler
}

func (c *localConn) RoundTrip(req []byte) ([]byte, error) {
	if len(req) > netsim.MaxFrameSize {
		// Both backends share the frame bound, so a frame that could
		// never cross the wire never crosses a local link either.
		return nil, fmt.Errorf("fleet: %d-byte frame to shard %d member %d: %w",
			len(req), c.shard, c.member, netsim.ErrFrameTooLarge)
	}
	h, err := c.connect()
	if err != nil {
		return nil, err
	}
	return h(req)
}

func (c *localConn) connect() (netsim.Handler, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.handler != nil {
		return c.handler, nil
	}
	n := c.net.node(c.shard, c.member)
	if n == nil {
		return nil, errNotRunning(c.shard, c.member)
	}
	hello := c.hello()
	w, h, ref := n.admit(hello)
	if ref != nil {
		return nil, ref.remote()
	}
	if err := c.welcomed(hello, w); err != nil {
		return nil, err
	}
	c.handler = h
	return h, nil
}

func (c *localConn) Close() error { return nil }

// pipedConn is a local link carried by a caller-supplied transport.
type pipedConn struct{ netsim.Transport }

func (pipedConn) Close() error { return nil }
