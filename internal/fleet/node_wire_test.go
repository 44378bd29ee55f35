package fleet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
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

// testNode builds one shard member on in-memory backends
// with the lean auto-accept provider, and serves it on a real TCP
// listener exactly like tpserver's node roles do.
func testNode(t *testing.T, member int, startRole string, peers []PeerAddr) (*Node, string) {
	t.Helper()
	return serveTestNode(t, testNodeConfig(member, startRole, peers))
}

// testNodeConfig is testNode's member configuration, for tests that
// adjust it before serving.
func testNodeConfig(member int, startRole string, peers []PeerAddr) NodeConfig {
	build := func(epoch uint64) (*core.Provider, error) {
		p := core.NewProvider(core.ProviderConfig{
			Name:                  fmt.Sprintf("test-node%d", member),
			Clock:                 sim.WallClock{},
			Random:                sim.NewRand(uint64(member) + 0x0DE),
			ConfirmThresholdCents: 1_000_000,
		})
		if err := p.Ledger().CreateAccount("payer", 1_000_000); err != nil {
			return nil, err
		}
		if err := p.Ledger().CreateAccount("sink", 0); err != nil {
			return nil, err
		}
		return p, nil
	}
	backends := map[string]store.Backend{}
	return NodeConfig{
		Shard:     0,
		Member:    member,
		StartRole: startRole,
		Followers: peers,
		NewBackend: func(role string) (store.Backend, error) {
			if b, ok := backends[role]; ok {
				return b, nil
			}
			b := store.NewMemBackend()
			backends[role] = b
			return b, nil
		},
		Build: build,
		Restore: func(epoch uint64, st *store.Store) (*core.Provider, error) {
			return core.RestoreProvider(core.ProviderConfig{
				Name:                  fmt.Sprintf("test-node%d", member),
				Clock:                 sim.WallClock{},
				Random:                sim.NewRand(uint64(member)<<8 | epoch),
				ConfirmThresholdCents: 1_000_000,
			}, st)
		},
		Net: wireNet{boot: 5 * time.Second, promote: time.Second, ctlTimeout: 2 * time.Second},
	}
}

// serveTestNode starts a member and serves it on a loopback listener.
func serveTestNode(t *testing.T, cfg NodeConfig) (*Node, string) {
	t.Helper()
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode(member %d): %v", cfg.Member, err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	wsrv := wire.NewServer(wire.ServerConfig{
		Handshake: node.Accept,
		Classify:  node.Classify,
		Workers:   2,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		wsrv.Serve(ln)
	}()
	t.Cleanup(func() {
		wsrv.Shutdown()
		<-done
	})
	return node, ln.Addr().String()
}

// shipClient opens a supervised replication client whose role handshake
// claims the given epoch on every (re)connect.
func shipClient(t *testing.T, addr string, epoch uint64) *wire.Client {
	t.Helper()
	c := wire.NewClient(wire.ClientConfig{
		Addr: addr,
		Handshake: func(conn net.Conn) error {
			_, err := sendHello(conn, Hello{Kind: HelloShip, Shard: 0, Member: 99, Epoch: epoch})
			return err
		},
		ResponseTimeout: 5 * time.Second,
		ReconnectMin:    5 * time.Millisecond,
		ReconnectMax:    50 * time.Millisecond,
	})
	t.Cleanup(func() { c.Close() })
	return c
}

func wireAck(t *testing.T, c *wire.Client, frame []byte) ackFrame {
	t.Helper()
	resp, err := c.RoundTrip(frame)
	if err != nil {
		t.Fatalf("ship round trip: %v", err)
	}
	_, _, ack, err := decodeRepFrame(resp)
	if err != nil || ack == nil {
		t.Fatalf("ship response is not an ack: %v", err)
	}
	return *ack
}

// WAL shipping over a real TCP pair through the chaos proxy: connection
// resets mid-stream must cost nothing — the supervised client
// reconnects (re-running the role handshake), the retry policy resends,
// and the follower's offset dedupe absorbs the overlap. After the run
// the follower has applied exactly the primary's frontier.
func TestNodeShipStraddlesConnectionReset(t *testing.T) {
	follower, followerAddr := testNode(t, 1, NodeRoleFollower, nil)

	proxy := faults.NewProxy(faults.ProxyConfig{
		Target:    followerAddr,
		Rng:       sim.NewRand(0xF15),
		ResetRate: 0.05,
		ChunkSize: 256,
	})
	proxyAddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer proxy.Close()

	primary, primaryAddr := testNode(t, 0, NodeRolePrimary, []PeerAddr{{Member: 1, Addr: proxyAddr}})

	// Drive committed groups through the request plane, resubmitting on
	// transient failures like a real client transport would.
	req := wire.NewClient(wire.ClientConfig{
		Addr: primaryAddr,
		Handshake: func(conn net.Conn) error {
			_, err := sendHello(conn, Hello{Kind: HelloRouter, Shard: 0, Epoch: 1})
			return err
		},
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	defer req.Close()

	const txs = 30
	for i := 0; i < txs; i++ {
		frame := submitFrame(t, fmt.Sprintf("straddle-%d", i))
		deadline := time.Now().Add(20 * time.Second)
		for {
			resp, err := req.RoundTrip(frame)
			if err == nil {
				expectAccepted(t, resp, err)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tx %d never accepted: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	st := primary.Status()
	if st.Applied != txs {
		t.Fatalf("primary frontier = %d, want %d", st.Applied, txs)
	}
	if len(st.Links) != 1 || st.Links[0].Acked != txs || st.Links[0].Lag != 0 {
		t.Fatalf("link status = %+v, want acked=%d lag=0", st.Links, txs)
	}
	if got := follower.Status().Applied; got != txs {
		t.Fatalf("follower applied = %d, want %d", got, txs)
	}
	if proxy.Stats().Resets == 0 {
		t.Fatalf("chaos proxy never reset a connection; test exercised nothing")
	}
	if primary.Demotions() != 0 {
		t.Fatalf("primary was demoted %d times under pure link chaos", primary.Demotions())
	}
}

// Gap refusal and overlap dedupe over a real TCP ship link: a frame
// claiming an offset beyond the follower's applied position is refused
// (ackGap), a frame overlapping it is deduplicated by suffix.
func TestNodeShipGapAndOverlapOverTCP(t *testing.T) {
	_, followerAddr := testNode(t, 1, NodeRoleFollower, nil)
	c := shipClient(t, followerAddr, 1)

	boot := encodeBootstrap(bootstrapFrame{Epoch: 1, UpTo: 0, Gen: 1, State: []byte("seed-state")})
	if ack := wireAck(t, c, boot); ack.Status != ackOK || ack.Applied != 0 {
		t.Fatalf("bootstrap ack = %+v", ack)
	}

	// A hole: From=3 when the follower has applied 0.
	gap := encodeAppend(appendFrame{Epoch: 1, From: 3, Groups: [][]byte{[]byte("g4")}})
	if ack := wireAck(t, c, gap); ack.Status != ackGap || ack.Applied != 0 {
		t.Fatalf("gap ack = %+v, want ackGap applied=0", ack)
	}

	// Contiguous append lands.
	app := encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: [][]byte{[]byte("g1"), []byte("g2")}})
	if ack := wireAck(t, c, app); ack.Status != ackOK || ack.Applied != 2 {
		t.Fatalf("append ack = %+v, want applied=2", ack)
	}

	// Overlapping retransmission: only the fresh suffix applies.
	overlap := encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: [][]byte{[]byte("g1"), []byte("g2"), []byte("g3")}})
	if ack := wireAck(t, c, overlap); ack.Status != ackOK || ack.Applied != 3 {
		t.Fatalf("overlap ack = %+v, want applied=3", ack)
	}

	// Pure duplicate.
	if ack := wireAck(t, c, app); ack.Status != ackOK || ack.Applied != 3 {
		t.Fatalf("duplicate ack = %+v, want applied=3", ack)
	}
}

// The reconnect regression the distributed failover depends on: a ship
// client whose connection drops across a failover re-runs the ROLE
// handshake on reconnect, and the follower refuses the stale epoch at
// the socket edge — fatally, so the deposed primary's client cannot ack
// anything ever again, no matter how many times it reconnects.
func TestNodeReconnectCannotAckAtStaleEpoch(t *testing.T) {
	follower, followerAddr := testNode(t, 1, NodeRoleFollower, nil)

	proxy := faults.NewProxy(faults.ProxyConfig{
		Target: followerAddr,
		Rng:    sim.NewRand(0xE1),
	})
	proxyAddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer proxy.Close()

	// The epoch-1 primary's ship link, established and acking.
	old := shipClient(t, proxyAddr, 1)
	boot := encodeBootstrap(bootstrapFrame{Epoch: 1, UpTo: 0, Gen: 1, State: []byte("seed")})
	if ack := wireAck(t, old, boot); ack.Status != ackOK {
		t.Fatalf("epoch-1 bootstrap ack = %+v", ack)
	}
	app := encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: [][]byte{[]byte("g1")}})
	if ack := wireAck(t, old, app); ack.Status != ackOK || ack.Applied != 1 {
		t.Fatalf("epoch-1 append ack = %+v", ack)
	}

	// Failover happens elsewhere: the new primary bootstraps this
	// follower at epoch 2 (direct, not through the partitioned proxy).
	neu := shipClient(t, followerAddr, 2)
	boot2 := encodeBootstrap(bootstrapFrame{Epoch: 2, UpTo: 1, Gen: 2, State: []byte("seed2")})
	if ack := wireAck(t, neu, boot2); ack.Status != ackOK || ack.Applied != 1 {
		t.Fatalf("epoch-2 bootstrap ack = %+v", ack)
	}

	// Sever the old primary's link, then heal: its next ship forces a
	// reconnect, which re-runs the role handshake at epoch 1.
	proxy.Partition()
	old.RoundTrip(app) // fails: connection severed
	proxy.Heal()

	stale := encodeAppend(appendFrame{Epoch: 1, From: 1, Groups: [][]byte{[]byte("g2")}})
	var remote *netsim.RemoteError
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := old.RoundTrip(stale)
		if errors.As(err, &remote) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale client never saw the handshake refusal, last err: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if remote.Code != netsim.ErrCodeFenced {
		t.Fatalf("refusal code = %d, want ErrCodeFenced", remote.Code)
	}
	refusal := error(remote)
	if netsim.DefaultRetryable(refusal) {
		t.Fatalf("fenced refusal classified retryable; a zombie primary would spin forever")
	}
	if !FailoverTrigger(refusal) {
		t.Fatalf("fenced refusal is not a failover trigger")
	}

	// The refusal latched: further attempts fail immediately without
	// touching the network, and nothing was ever acked at epoch 1.
	if _, err := old.RoundTrip(stale); !errors.As(err, &remote) || remote.Code != netsim.ErrCodeFenced {
		t.Fatalf("latched client error = %v, want fenced refusal", err)
	}
	st := follower.Status()
	if st.Applied != 1 || st.Epoch != 2 {
		t.Fatalf("follower state = applied %d epoch %d, want applied 1 epoch 2", st.Applied, st.Epoch)
	}
}

// A promote command quoting an epoch at or below the member's lineage
// is refused with the fencing error — a stale router cannot roll a
// shard backwards.
func TestNodePromoteRefusesStaleEpoch(t *testing.T) {
	_, followerAddr := testNode(t, 1, NodeRoleFollower, nil)
	c := shipClient(t, followerAddr, 3)
	boot := encodeBootstrap(bootstrapFrame{Epoch: 3, UpTo: 0, Gen: 1, State: []byte("seed")})
	if ack := wireAck(t, c, boot); ack.Status != ackOK {
		t.Fatalf("bootstrap ack = %+v", ack)
	}

	_, err := ctlRoundTrip(followerAddr, 0, encodeCtlReq(ctlReq{promote: &promoteCmd{NewEpoch: 2}}), time.Second)
	if err == nil {
		t.Fatalf("stale promote succeeded")
	}
	var remote *netsim.RemoteError
	if !errors.As(err, &remote) || remote.Code != netsim.ErrCodeFenced {
		t.Fatalf("stale promote error = %v, want fenced refusal", err)
	}
}

// A member refuses a data-plane hello whose crypto profile differs from
// its own, the retired wire ID 2 included, with a permanent error and
// the fleet.scheme_mismatch count; a hello under its own profile is
// welcomed.
func TestNodeRefusesHelloUnderOtherScheme(t *testing.T) {
	cfg := testNodeConfig(0, NodeRolePrimary, nil)
	cfg.Scheme = cryptoutil.SchemeEd25519
	cfg.Metrics = obs.NewRegistry()
	_, addr := serveTestNode(t, cfg)

	hello := func(kind, scheme uint8) (Welcome, error) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return sendHello(conn, Hello{Kind: kind, Scheme: scheme, Shard: 0, Member: 7, Epoch: 1})
	}
	refused := []struct {
		kind, scheme uint8
	}{
		{HelloRouter, uint8(cryptoutil.SchemeRSA)},
		{HelloRouter, 2},
		{HelloShip, 2},
		{HelloRouter, 9},
	}
	for _, c := range refused {
		_, err := hello(c.kind, c.scheme)
		if code, ok := remoteCode(err); !ok || code != netsim.ErrCodePermanent {
			t.Fatalf("hello kind %d scheme %d: err = %v, want a permanent refusal", c.kind, c.scheme, err)
		}
		if !strings.Contains(err.Error(), "crypto profile mismatch") {
			t.Fatalf("hello kind %d scheme %d: err = %v, want a profile mismatch", c.kind, c.scheme, err)
		}
	}
	if got := cfg.Metrics.Counter("fleet.scheme_mismatch").Value(); got != int64(len(refused)) {
		t.Fatalf("fleet.scheme_mismatch = %d, want %d", got, len(refused))
	}

	w, err := hello(HelloRouter, uint8(cryptoutil.SchemeEd25519))
	if err != nil {
		t.Fatalf("hello under the member's own profile: %v", err)
	}
	if w.Scheme != uint8(cryptoutil.SchemeEd25519) {
		t.Fatalf("welcome scheme = %d, want %d", w.Scheme, cryptoutil.SchemeEd25519)
	}
}
