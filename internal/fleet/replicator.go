package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unitp/internal/core"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
)

// replicator ships committed WAL groups from one primary (at one epoch)
// to the shard's followers and tracks acknowledged offsets. Ship runs on
// the committer goroutine (the commit hook, which the committer
// serializes) and link enlistment happens inside Provider.Quiesced, so
// shipping itself is single-threaded; the small mutex exists for the
// admin plane, which reads link positions and last-ack times (LinkHealth)
// concurrently with shipping. A replicator is abandoned with its primary
// on failover or demotion.
type replicator struct {
	shard   int
	epoch   uint64
	metrics *obs.Registry
	names   repMetricNames
	clock   sim.Clock

	mu     sync.Mutex
	offset uint64 // stream offset of the next group to ship
	links  []repLink
}

// repMetricNames holds a shard's replication metric names, formatted
// once rather than on every shipped batch.
type repMetricNames struct {
	shipped, acked, lag string
}

// newRepMetricNames names shard's replication metrics.
func newRepMetricNames(shard int) repMetricNames {
	return repMetricNames{
		shipped: fmt.Sprintf("fleet.shard%d.shipped_groups", shard),
		acked:   fmt.Sprintf("fleet.shard%d.acked_groups", shard),
		lag:     fmt.Sprintf("fleet.shard%d.replication_lag", shard),
	}
}

// repLink is one follower's replication endpoint: member index, open
// link, acked stream offset, and when the last ack arrived.
type repLink struct {
	member  int
	conn    memberConn
	acked   uint64
	lastAck time.Time
}

// LinkHealth is one replication link's position and freshness, as the
// primary reports it in its MemberStatus and the admin plane renders it
// (/readyz in fleet mode).
type LinkHealth struct {
	// Member is the follower's member index within the shard.
	Member int

	// Acked is the last stream offset the follower acknowledged.
	Acked uint64

	// Lag is how many committed groups the follower trails the
	// primary's frontier by.
	Lag uint64

	// AckAge is how long ago the follower's most recent ack arrived on
	// the primary's clock (an age, not a timestamp, so it crosses
	// process boundaries free of clock skew).
	AckAge time.Duration
}

// frontier returns the primary's current stream offset.
func (r *replicator) frontier() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offset
}

// health snapshots every link's position and freshness.
func (r *replicator) health() []LinkHealth {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LinkHealth, len(r.links))
	for i, l := range r.links {
		out[i] = LinkHealth{Member: l.member, Acked: l.acked, Lag: r.offset - l.acked, AckAge: now.Sub(l.lastAck)}
	}
	return out
}

// bootstrap ships a bootstrap frame to a new follower and enlists it.
func (r *replicator) bootstrap(conn memberConn, member int, frame []byte) error {
	ack, err := r.exchange(conn, member, frame)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.links = append(r.links, repLink{member: member, conn: conn, acked: ack.Applied, lastAck: r.now()})
	r.mu.Unlock()
	return nil
}

// close releases every enlisted link; safe on a nil replicator.
func (r *replicator) close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.links {
		l.conn.Close()
	}
}

// ship sends one committed batch to every follower and waits for all
// acknowledgements. Any failure is fatal to the primary: the committer
// kills it rather than answer half-replicated.
func (r *replicator) ship(groups [][]byte) error {
	r.mu.Lock()
	frame := encodeAppend(appendFrame{Epoch: r.epoch, From: r.offset, Groups: groups})
	target := r.offset + uint64(len(groups))
	n := len(r.links)
	r.mu.Unlock()
	r.metrics.Counter(r.names.shipped).Add(int64(len(groups)))
	for i := 0; i < n; i++ {
		r.mu.Lock()
		l := r.links[i]
		r.mu.Unlock()
		ack, err := r.exchange(l.conn, l.member, frame)
		if err != nil {
			r.gauge(target)
			return err
		}
		r.mu.Lock()
		r.links[i].acked = ack.Applied
		r.links[i].lastAck = r.now()
		r.mu.Unlock()
		r.metrics.Counter(r.names.acked).Add(int64(len(groups)))
	}
	r.mu.Lock()
	r.offset = target
	r.mu.Unlock()
	r.gauge(target)
	return nil
}

// exchange performs one replication round trip and decodes the ack,
// translating refusal statuses into fleet errors. Round-trip time feeds
// the fleet.ship_rtt histogram; a fencing refusal bumps
// fleet.fenced_frames — the admin-plane signal that a zombie primary is
// being refused somewhere.
func (r *replicator) exchange(t netsim.Transport, member int, frame []byte) (*ackFrame, error) {
	start := r.now()
	resp, err := t.RoundTrip(frame)
	if err != nil {
		if code, ok := remoteCode(err); ok && code == netsim.ErrCodeFenced {
			// The refusal arrived at the socket edge (role handshake),
			// before the follower's ack discipline even saw the frame.
			r.metrics.Counter("fleet.fenced_frames").Inc()
			return nil, fmt.Errorf("%w: %w: shard %d follower %d: %w",
				ErrReplication, ErrStaleEpoch, r.shard, member, err)
		}
		return nil, fmt.Errorf("%w: shard %d follower %d: %w", ErrReplication, r.shard, member, err)
	}
	r.metrics.Observe("fleet.ship_rtt", r.now().Sub(start))
	_, _, ack, err := decodeRepFrame(resp)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d follower %d: %w", ErrReplication, r.shard, member, err)
	}
	if ack == nil {
		return nil, fmt.Errorf("%w: shard %d follower %d: response was not an ack", ErrReplication, r.shard, member)
	}
	switch ack.Status {
	case ackOK:
		return ack, nil
	case ackFenced:
		r.metrics.Counter("fleet.fenced_frames").Inc()
		return nil, fmt.Errorf("%w: %w: shard %d follower %d serves epoch %d, frame carried %d",
			ErrReplication, ErrStaleEpoch, r.shard, member, ack.Epoch, r.epoch)
	case ackGap:
		return nil, fmt.Errorf("%w: %w: shard %d follower %d applied %d, frame started past it",
			ErrReplication, ErrOffsetGap, r.shard, member, ack.Applied)
	default:
		return nil, fmt.Errorf("%w: shard %d follower %d: unknown ack status %d", ErrReplication, r.shard, member, ack.Status)
	}
}

// now reads the replicator's clock (wall clock when unset).
func (r *replicator) now() time.Time {
	if r.clock == nil {
		return time.Now()
	}
	return r.clock.Now()
}

// gauge publishes the replication lag: how many committed groups the
// slowest follower is behind the primary's frontier.
func (r *replicator) gauge(frontier uint64) {
	r.mu.Lock()
	var lag uint64
	for i := range r.links {
		if d := frontier - r.links[i].acked; d > lag {
			lag = d
		}
	}
	r.mu.Unlock()
	r.metrics.Gauge(r.names.lag).Set(int64(lag))
}

// FailoverTrigger reports whether a request error is one the router
// should answer with a failover: the primary is dead (crashed store,
// injected kill, failed replication, unreachable process), fenced (a
// stale epoch the router should route past), or no longer primary.
// Over the wire the same verdicts arrive as error codes — fenced and
// failover frames are triggers; ordinary remote handler errors are not.
func FailoverTrigger(err error) bool {
	switch {
	case errors.Is(err, store.ErrCrashed),
		errors.Is(err, core.ErrFenced),
		errors.Is(err, faults.ErrKilled),
		errors.Is(err, ErrReplication),
		errors.Is(err, ErrPrimaryUnreachable),
		errors.Is(err, errNotPrimary):
		return true
	}
	if code, ok := remoteCode(err); ok {
		return code == netsim.ErrCodeFenced || code == netsim.ErrCodeFailover
	}
	return false
}
