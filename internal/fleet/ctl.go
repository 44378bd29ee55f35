package fleet

import (
	"fmt"
	"math"
	"net"
	"time"

	"unitp/internal/cryptoutil"
	"unitp/internal/netsim"
)

// The control protocol is the fleet's supervision channel. The shard
// handle and its warden use it to probe member health (status), to
// drive failover (promote against the most caught-up follower), to
// re-attach orphaned followers to the current primary (adopt), and to
// stand down stale primaries it discovers (demote). Over the wire each
// command is a short-lived connection opened with a HelloCtl handshake,
// carrying one request frame and one response; in-process it is a
// direct Node.control call. Every command carries or returns epochs, so
// a command from a stale observer is refused or collapses into a no-op
// — the same discipline as ShardHandle.Failover(observedEpoch).

// Control frame tags (requests 0x21.., the status response 0x41).
// Every command is answered with the member's status after it.
const (
	ctlStatus  uint8 = 0x21
	ctlPromote uint8 = 0x22
	ctlAdopt   uint8 = 0x23
	ctlDemote  uint8 = 0x24

	ctlStatusResp uint8 = 0x41
)

// MemberStatus is one shard member's self-reported state, served over
// the control channel and aggregated on the router's admin plane.
type MemberStatus struct {
	Member  int
	Role    uint8 // WelcomePrimary or WelcomeFollower
	Epoch   uint64
	Applied uint64 // follower: applied stream offset; primary: ship frontier
	Healthy bool   // primary: provider alive and ready; follower: process up
	Fenced  bool   // the member's provider was fenced (deposed primary)
	Links   []LinkHealth
}

// promoteCmd orders a follower to restore a primary at NewEpoch from
// its own durable segment and re-bootstrap the listed survivors.
type promoteCmd struct {
	NewEpoch  uint64
	Survivors []PeerAddr
}

// adoptCmd orders a primary to bootstrap one follower into its replica
// set (idempotent when the member is already linked).
type adoptCmd struct {
	Member int
	Addr   string
}

// demoteCmd orders a primary serving an epoch older than Epoch to fence
// itself and rejoin as a follower awaiting adoption.
type demoteCmd struct {
	Epoch uint64
}

// PeerAddr names one shard member's WAL-shipping endpoint.
type PeerAddr struct {
	Member int
	Addr   string
}

func encodeStatusResp(st MemberStatus) []byte {
	b := cryptoutil.NewBuffer(64)
	b.PutUint8(ctlStatusResp)
	b.PutUint32(uint32(st.Member))
	b.PutUint8(st.Role)
	b.PutUint64(st.Epoch)
	b.PutUint64(st.Applied)
	b.PutBool(st.Healthy)
	b.PutBool(st.Fenced)
	b.PutUint32(uint32(len(st.Links)))
	for _, l := range st.Links {
		b.PutUint32(uint32(l.Member))
		b.PutUint64(l.Acked)
		b.PutUint64(l.Lag)
		b.PutUint64(uint64(l.AckAge.Milliseconds()))
	}
	return b.Bytes()
}

func decodeStatusResp(data []byte) (MemberStatus, error) {
	r := cryptoutil.NewReader(data)
	if tag := r.Uint8(); r.Err() == nil && tag != ctlStatusResp {
		return MemberStatus{}, fmt.Errorf("fleet: ctl: not a status response (tag %#x)", tag)
	}
	st := MemberStatus{
		Member: int(r.Uint32()), Role: r.Uint8(),
		Epoch: r.Uint64(), Applied: r.Uint64(),
		Healthy: r.Bool(), Fenced: r.Bool(),
	}
	n := int(r.Uint32())
	if r.Err() != nil {
		return MemberStatus{}, fmt.Errorf("fleet: ctl status: %w", r.Err())
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		l := LinkHealth{Member: int(r.Uint32()), Acked: r.Uint64(), Lag: r.Uint64()}
		// The age travels as signed milliseconds; one a Duration cannot
		// hold would wrap into a different age.
		ms := int64(r.Uint64())
		if ms > math.MaxInt64/int64(time.Millisecond) || ms < math.MinInt64/int64(time.Millisecond) {
			return MemberStatus{}, fmt.Errorf("fleet: ctl status: link ack age of %d ms out of range", ms)
		}
		l.AckAge = time.Duration(ms) * time.Millisecond
		st.Links = append(st.Links, l)
	}
	if err := r.ExpectEOF(); err != nil {
		return MemberStatus{}, fmt.Errorf("fleet: ctl status: %w", err)
	}
	return st, nil
}

// encodeCtlReq encodes one control request.
func encodeCtlReq(cmd ctlReq) []byte {
	b := cryptoutil.NewBuffer(64)
	switch {
	case cmd.promote != nil:
		b.PutUint8(ctlPromote)
		b.PutUint64(cmd.promote.NewEpoch)
		b.PutUint32(uint32(len(cmd.promote.Survivors)))
		for _, p := range cmd.promote.Survivors {
			b.PutUint32(uint32(p.Member))
			b.PutString(p.Addr)
		}
	case cmd.adopt != nil:
		b.PutUint8(ctlAdopt)
		b.PutUint32(uint32(cmd.adopt.Member))
		b.PutString(cmd.adopt.Addr)
	case cmd.demote != nil:
		b.PutUint8(ctlDemote)
		b.PutUint64(cmd.demote.Epoch)
	default:
		b.PutUint8(ctlStatus)
	}
	return b.Bytes()
}

// ctlReq is one control request: at most one command is set, and none
// is a status probe.
type ctlReq struct {
	promote *promoteCmd
	adopt   *adoptCmd
	demote  *demoteCmd
}

// decodeCtlReq decodes one control request.
func decodeCtlReq(data []byte) (ctlReq, error) {
	r := cryptoutil.NewReader(data)
	switch tag := r.Uint8(); tag {
	case ctlStatus:
		if err := r.ExpectEOF(); err != nil {
			return ctlReq{}, fmt.Errorf("fleet: ctl status req: %w", err)
		}
		return ctlReq{}, nil
	case ctlPromote:
		cmd := &promoteCmd{NewEpoch: r.Uint64()}
		n := int(r.Uint32())
		if r.Err() != nil {
			return ctlReq{}, fmt.Errorf("fleet: ctl promote: %w", r.Err())
		}
		for i := 0; i < n && r.Err() == nil; i++ {
			cmd.Survivors = append(cmd.Survivors, PeerAddr{Member: int(r.Uint32()), Addr: r.String()})
		}
		if err := r.ExpectEOF(); err != nil {
			return ctlReq{}, fmt.Errorf("fleet: ctl promote: %w", err)
		}
		return ctlReq{promote: cmd}, nil
	case ctlAdopt:
		cmd := &adoptCmd{Member: int(r.Uint32()), Addr: r.String()}
		if err := r.ExpectEOF(); err != nil {
			return ctlReq{}, fmt.Errorf("fleet: ctl adopt: %w", err)
		}
		return ctlReq{adopt: cmd}, nil
	case ctlDemote:
		cmd := &demoteCmd{Epoch: r.Uint64()}
		if err := r.ExpectEOF(); err != nil {
			return ctlReq{}, fmt.Errorf("fleet: ctl demote: %w", err)
		}
		return ctlReq{demote: cmd}, nil
	default:
		return ctlReq{}, fmt.Errorf("fleet: unknown ctl frame tag %#x", tag)
	}
}

// ctlRoundTrip opens a one-shot control connection: dial, HelloCtl
// handshake, one request, one response. Refusals and remote errors
// surface as *netsim.RemoteError with their wire code intact.
func ctlRoundTrip(addr string, shard int, req []byte, timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("fleet: ctl dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := sendHello(conn, Hello{Kind: HelloCtl, Shard: uint32(shard)}); err != nil {
		return nil, err
	}
	if err := netsim.WriteFrame(conn, req); err != nil {
		return nil, fmt.Errorf("fleet: ctl write: %w", err)
	}
	resp, err := netsim.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("fleet: ctl read: %w", err)
	}
	if code, msg, isErr := netsim.DecodeErrorFrameCode(resp); isErr {
		return nil, &netsim.RemoteError{Msg: msg, Code: code}
	}
	return resp, nil
}
