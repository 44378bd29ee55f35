package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"unitp/internal/core"
	"unitp/internal/store"
)

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

// The ring must spread realistic account populations: no empty shard,
// and no shard hoarding more than a few times its fair share.
func TestRingSpread(t *testing.T) {
	r := NewRing(8, 0)
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[r.Shard(fmt.Sprintf("user-%d", i))]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d owns no keys", s)
		}
		if n > 3*1000/8 {
			t.Errorf("shard %d owns %d of 1000 keys (fair share 125)", s, n)
		}
	}
}

// Sequentially numbered account names differ only in trailing bytes —
// the exact pattern raw FNV-1a routes onto a single arc because its
// high bits barely move. The finalizer must keep such populations
// spread; this is a regression test for a routing collapse that sent
// an entire fleet's traffic to one shard.
func TestRingSpreadsSequentialNames(t *testing.T) {
	r := NewRing(8, 0)
	hit := map[int]bool{}
	for i := 0; i < 64; i++ {
		hit[r.Shard(fmt.Sprintf("acct-%05d", i))] = true
	}
	if len(hit) < 6 {
		t.Fatalf("64 sequential names landed on only %d of 8 shards", len(hit))
	}
}

// Same parameters, same key → same shard, across independently built
// rings.
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(5, 16), NewRing(5, 16)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Shard(key) != b.Shard(key) {
			t.Fatalf("rings disagree on %q", key)
		}
	}
}

// Consistent hashing's point: growing the fleet moves only the keys the
// new shard's arcs claim — roughly 1/(n+1) of them, not everything.
func TestRingReshardStability(t *testing.T) {
	before, after := NewRing(4, 0), NewRing(5, 0)
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("user-%d", i)
		a, b := before.Shard(key), after.Shard(key)
		if a != b {
			moved++
			if b != 4 {
				t.Errorf("%q moved from shard %d to old shard %d; only the new shard may gain keys", key, a, b)
			}
		}
	}
	if moved == 0 || moved > keys*2/5 {
		t.Fatalf("%d of %d keys moved adding a 5th shard, want roughly 1/5", moved, keys)
	}
}

// ---------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------

func TestWireRoundTrips(t *testing.T) {
	boot := bootstrapFrame{Epoch: 3, UpTo: 17, Gen: 2,
		State: []byte("state"), Records: [][]byte{[]byte("r1"), []byte("r2")}}
	b, a, k, err := decodeRepFrame(encodeBootstrap(boot))
	if err != nil || a != nil || k != nil || b == nil {
		t.Fatalf("bootstrap decode: b=%v a=%v k=%v err=%v", b, a, k, err)
	}
	if b.Epoch != 3 || b.UpTo != 17 || b.Gen != 2 || string(b.State) != "state" ||
		len(b.Records) != 2 || !bytes.Equal(b.Records[1], []byte("r2")) {
		t.Fatalf("bootstrap round trip mangled: %+v", b)
	}

	app := appendFrame{Epoch: 4, From: 9, Groups: [][]byte{[]byte("g")}}
	b, a, k, err = decodeRepFrame(encodeAppend(app))
	if err != nil || b != nil || k != nil || a == nil {
		t.Fatalf("append decode: b=%v a=%v k=%v err=%v", b, a, k, err)
	}
	if a.Epoch != 4 || a.From != 9 || len(a.Groups) != 1 {
		t.Fatalf("append round trip mangled: %+v", a)
	}

	ack := ackFrame{Epoch: 5, Applied: 11, Status: ackGap}
	b, a, k, err = decodeRepFrame(encodeAck(ack))
	if err != nil || b != nil || a != nil || k == nil {
		t.Fatalf("ack decode: b=%v a=%v k=%v err=%v", b, a, k, err)
	}
	if k.Epoch != 5 || k.Applied != 11 || k.Status != ackGap {
		t.Fatalf("ack round trip mangled: %+v", k)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	for _, frame := range [][]byte{nil, {}, {0xFF}, []byte("not a frame"),
		encodeAck(ackFrame{})[:3]} {
		if _, _, _, err := decodeRepFrame(frame); err == nil {
			t.Errorf("decoded garbage frame %q", frame)
		}
	}
}

// TestDecodersRejectForgedCount sends frames whose element count claims
// far more elements than the frame holds: decoding must fail at the
// first missing element instead of looping over the claimed count.
func TestDecodersRejectForgedCount(t *testing.T) {
	rep := func(data []byte) error { _, _, _, err := decodeRepFrame(data); return err }
	cases := []struct {
		name   string
		frame  []byte // ends with its element count
		decode func([]byte) error
	}{
		{"bootstrap", encodeBootstrap(bootstrapFrame{Epoch: 1}), rep},
		{"append", encodeAppend(appendFrame{Epoch: 1}), rep},
		{"status", encodeStatusResp(MemberStatus{Member: 1}), func(data []byte) error {
			_, err := decodeStatusResp(data)
			return err
		}},
		{"promote", encodeCtlReq(ctlReq{promote: &promoteCmd{NewEpoch: 2}}), func(data []byte) error {
			_, err := decodeCtlReq(data)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.decode(c.frame); err != nil {
			t.Fatalf("%s: unforged frame refused: %v", c.name, err)
		}
		forged := append([]byte(nil), c.frame...)
		copy(forged[len(forged)-4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
		if err := c.decode(forged); err == nil {
			t.Errorf("%s frame claiming 2^32-1 elements decoded", c.name)
		}
	}
}

// FuzzDecodeRepFrame feeds arbitrary bytes to the replication-frame
// decoder a follower runs on every shipped frame: it must never panic,
// and an accepted frame must re-encode to exactly its input.
func FuzzDecodeRepFrame(f *testing.F) {
	f.Add(encodeBootstrap(bootstrapFrame{Epoch: 3, UpTo: 17, Gen: 2,
		State: []byte("state"), Records: [][]byte{[]byte("r1"), []byte("r2")}}))
	f.Add(encodeBootstrap(bootstrapFrame{Epoch: 1}))
	f.Add(encodeAppend(appendFrame{Epoch: 4, From: 9, Groups: [][]byte{[]byte("g"), nil}}))
	f.Add(encodeAck(ackFrame{Epoch: 5, Applied: 11, Status: ackGap}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, a, k, err := decodeRepFrame(data)
		if err != nil {
			return
		}
		var again []byte
		switch {
		case b != nil && a == nil && k == nil:
			again = encodeBootstrap(*b)
		case a != nil && b == nil && k == nil:
			again = encodeAppend(*a)
		case k != nil && b == nil && a == nil:
			again = encodeAck(*k)
		default:
			t.Fatalf("decoded into %v, %v, %v: want exactly one frame", b, a, k)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes to %x, input %x", again, data)
		}
	})
}

// FuzzDecodeHello feeds arbitrary bytes to the role-handshake decoder
// every fleet listener runs first on a connection: it must never
// panic, and an accepted Hello must re-encode to exactly its input.
func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello(Hello{Kind: HelloRouter, Shard: 1, Epoch: 2}))
	f.Add(EncodeHello(Hello{Kind: HelloShip, Scheme: 2, Shard: 3, Member: 1, Epoch: 7, Offset: 1 << 40}))
	f.Add(EncodeHello(Hello{Kind: HelloCtl}))
	f.Add(EncodeWelcome(Welcome{Role: WelcomePrimary, Epoch: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if again := EncodeHello(h); !bytes.Equal(again, data) {
			t.Fatalf("accepted hello %+v re-encodes to %x, input %x", h, again, data)
		}
	})
}

// FuzzDecodeWelcome is FuzzDecodeHello's twin for the answer a dialer
// decodes.
func FuzzDecodeWelcome(f *testing.F) {
	f.Add(EncodeWelcome(Welcome{Role: WelcomePrimary, Epoch: 1, Applied: 12}))
	f.Add(EncodeWelcome(Welcome{Role: WelcomeFollower, Scheme: 2, Epoch: 9, Applied: 1 << 40}))
	f.Add(EncodeHello(Hello{Kind: HelloShip, Epoch: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWelcome(data)
		if err != nil {
			return
		}
		if again := EncodeWelcome(w); !bytes.Equal(again, data) {
			t.Fatalf("accepted welcome %+v re-encodes to %x, input %x", w, again, data)
		}
	})
}

// FuzzDecodeCtlReq feeds arbitrary bytes to the control-request
// decoder a member runs on every supervision connection: it must never
// panic, and an accepted request must re-encode to exactly its input.
func FuzzDecodeCtlReq(f *testing.F) {
	f.Add(encodeCtlReq(ctlReq{}))
	f.Add(encodeCtlReq(ctlReq{promote: &promoteCmd{NewEpoch: 3,
		Survivors: []PeerAddr{{Member: 1, Addr: "127.0.0.1:7001"}, {Member: 2, Addr: ""}}}}))
	f.Add(encodeCtlReq(ctlReq{adopt: &adoptCmd{Member: 2, Addr: "127.0.0.1:7002"}}))
	f.Add(encodeCtlReq(ctlReq{demote: &demoteCmd{Epoch: 1 << 40}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeCtlReq(data)
		if err != nil {
			return
		}
		if again := encodeCtlReq(req); !bytes.Equal(again, data) {
			t.Fatalf("accepted ctl request re-encodes to %x, input %x", again, data)
		}
	})
}

// FuzzDecodeStatusResp feeds arbitrary bytes to the status decoder a
// shard handle runs on every health probe's answer: it must never
// panic, and an accepted status must re-encode to exactly its input.
func FuzzDecodeStatusResp(f *testing.F) {
	f.Add(encodeStatusResp(MemberStatus{Member: 1, Role: WelcomePrimary, Epoch: 2, Applied: 9, Healthy: true}))
	f.Add(encodeStatusResp(MemberStatus{Member: 2, Role: WelcomeFollower, Epoch: 7, Fenced: true,
		Links: []LinkHealth{{Member: 1, Acked: 5, Lag: 2, AckAge: 1500 * time.Millisecond}, {Member: 3, AckAge: -time.Millisecond}}}))
	f.Add(encodeStatusResp(MemberStatus{Links: []LinkHealth{{AckAge: math.MaxInt64}}}))
	// An ack age of more milliseconds than a Duration holds: refused.
	overflow := encodeStatusResp(MemberStatus{Links: []LinkHealth{{}}})
	copy(overflow[len(overflow)-8:], "00000000")
	f.Add(overflow)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeStatusResp(data)
		if err != nil {
			return
		}
		if again := encodeStatusResp(st); !bytes.Equal(again, data) {
			t.Fatalf("accepted status %+v re-encodes to %x, input %x", st, again, data)
		}
	})
}

// FuzzReadNodeManifest feeds arbitrary file contents to the manifest
// reader a member runs at every restart: it must never panic, and an
// accepted manifest must be written back as exactly those bytes.
func FuzzReadNodeManifest(f *testing.F) {
	for _, m := range []NodeManifest{{Epoch: 1, Role: NodeRolePrimary}, {Epoch: 1 << 40, Role: NodeRoleFollower}, {}} {
		b := store.NewMemBackend()
		if err := WriteNodeManifest(b, m); err != nil {
			f.Fatal(err)
		}
		data, err := b.ReadFile(nodeManifestName)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := store.NewMemBackend()
		w, err := b.Create(nodeManifestName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		m, ok, err := ReadNodeManifest(b)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("an existing manifest file read as absent")
		}
		again := store.NewMemBackend()
		if err := WriteNodeManifest(again, m); err != nil {
			t.Fatal(err)
		}
		if written, err := again.ReadFile(nodeManifestName); err != nil || !bytes.Equal(written, data) {
			t.Fatalf("accepted manifest %+v writes back as %x (%v), input %x", m, written, err, data)
		}
	})
}

// ---------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------

func mustAck(t *testing.T, f *Follower, frame []byte) *ackFrame {
	t.Helper()
	resp, err := f.Handle(frame)
	if err != nil {
		t.Fatalf("follower errored: %v", err)
	}
	_, _, ack, err := decodeRepFrame(resp)
	if err != nil || ack == nil {
		t.Fatalf("follower response was not an ack: %v", err)
	}
	return ack
}

func bootFollower(t *testing.T, f *Follower, epoch, upTo uint64) {
	t.Helper()
	ack := mustAck(t, f, (encodeBootstrap(bootstrapFrame{
		Epoch: epoch, UpTo: upTo, Gen: 1, State: []byte("snap"),
	})))
	if ack.Status != ackOK || ack.Applied != upTo {
		t.Fatalf("bootstrap ack = %+v", ack)
	}
}

func TestFollowerAppliesAndDeduplicates(t *testing.T) {
	f := NewFollower(0, 0, store.NewMemBackend())
	bootFollower(t, f, 1, 0)

	groups := [][]byte{[]byte("g1"), []byte("g2")}
	ack := mustAck(t, f, (encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: groups})))
	if ack.Status != ackOK || ack.Applied != 2 {
		t.Fatalf("first append ack = %+v", ack)
	}

	// The same batch re-shipped (its ack was lost) must be a no-op.
	ack = mustAck(t, f, (encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: groups})))
	if ack.Status != ackOK || ack.Applied != 2 {
		t.Fatalf("duplicate append ack = %+v", ack)
	}

	// A partial overlap applies only the unseen suffix.
	ack = mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 1, From: 1, Groups: [][]byte{[]byte("g2"), []byte("g3")}})))
	if ack.Status != ackOK || ack.Applied != 3 {
		t.Fatalf("overlap append ack = %+v", ack)
	}
	if f.Applied() != 3 {
		t.Fatalf("Applied() = %d, want 3", f.Applied())
	}
}

func TestFollowerRefusesGapsAndStaleEpochs(t *testing.T) {
	f := NewFollower(0, 0, store.NewMemBackend())
	bootFollower(t, f, 2, 0)

	// A frame starting past the applied offset is a hole, not progress.
	ack := mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 2, From: 5, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackGap || ack.Applied != 0 {
		t.Fatalf("gap ack = %+v", ack)
	}

	// A deposed primary's epoch is refused — it can never collect the
	// acks it needs to answer a client.
	ack = mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 1, From: 0, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackFenced {
		t.Fatalf("stale-epoch ack = %+v", ack)
	}
	// Same for a stale bootstrap.
	ack = mustAck(t, f, (encodeBootstrap(bootstrapFrame{Epoch: 1})))
	if ack.Status != ackFenced {
		t.Fatalf("stale-bootstrap ack = %+v", ack)
	}
}

func TestFollowerUnbootstrappedAndRetired(t *testing.T) {
	f := NewFollower(0, 0, store.NewMemBackend())

	// Appends before any bootstrap are refused, not applied into nothing.
	ack := mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 1, From: 0, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackFenced {
		t.Fatalf("unbootstrapped append ack = %+v", ack)
	}
	if _, err := f.Promote(nil); err == nil {
		t.Fatal("promoted a follower that was never bootstrapped")
	}

	bootFollower(t, f, 1, 4)
	if _, err := f.Promote(func(st *store.Store) (*core.Provider, error) {
		return nil, nil
	}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// A retired follower refuses everything.
	ack = mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 9, From: 4, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackFenced {
		t.Fatalf("retired append ack = %+v", ack)
	}
	if _, err := f.Promote(func(st *store.Store) (*core.Provider, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("promoted a retired follower twice")
	}
}

// A follower whose newest snapshot rotted has nothing store.Open may
// fall back to, but a bootstrap replaces its state whole: it must
// re-seed the follower, and leave files outside the store alone.
func TestFollowerRebootstrapsOverDamagedStore(t *testing.T) {
	b := store.NewMemBackend()
	f := NewFollower(0, 0, b)
	bootFollower(t, f, 1, 0)
	ack := mustAck(t, f, encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: [][]byte{[]byte("g1")}}))
	if ack.Status != ackOK || ack.Applied != 1 {
		t.Fatalf("append ack = %+v", ack)
	}
	write := func(name string, data []byte) {
		t.Helper()
		w, err := b.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	write(nodeManifestName, []byte("manifest"))
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "snap-") {
			data, err := b.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xFF
			write(name, data)
		}
	}
	if _, err := store.Open(b); !errors.Is(err, store.ErrNoFallback) {
		t.Fatalf("damaged store opened: %v", err)
	}

	ack = mustAck(t, f, encodeBootstrap(bootstrapFrame{
		Epoch: 2, UpTo: 5, Gen: 3, State: []byte("fresh"), Records: [][]byte{[]byte("r5")},
	}))
	if ack.Status != ackOK || ack.Applied != 5 || ack.Epoch != 2 {
		t.Fatalf("re-bootstrap ack = %+v", ack)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if recs := st.Records(); string(st.Snapshot()) != "fresh" || len(recs) != 1 || string(recs[0]) != "r5" {
		t.Fatalf("re-seeded store holds %q + %q", st.Snapshot(), recs)
	}
	if data, err := b.ReadFile(nodeManifestName); err != nil || string(data) != "manifest" {
		t.Fatalf("bootstrap touched the manifest: %q, %v", data, err)
	}
}

// ---------------------------------------------------------------------
// Router refusals
// ---------------------------------------------------------------------

// A batch whose debit accounts hash to different shards must be refused
// outright: routing it by its first account would execute it on a shard
// where the other accounts don't exist, a silent wrong-shard rejection
// for a perfectly valid batch.
func TestRouterRejectsCrossShardBatch(t *testing.T) {
	r := NewRouter([]*ShardHandle{nil, nil, nil, nil}, nil)

	// Find two accounts the ring places on different shards.
	a := "acct-0"
	b := ""
	for i := 1; i < 1000; i++ {
		name := fmt.Sprintf("acct-%d", i)
		if r.ShardFor(name) != r.ShardFor(a) {
			b = name
			break
		}
	}
	if b == "" {
		t.Fatal("could not find accounts on distinct shards")
	}

	frame, err := core.EncodeMessage(&core.SubmitBatch{Txs: []core.Transaction{
		{ID: "b1", From: a, To: "sink", AmountCents: 1, Currency: "EUR"},
		{ID: "b2", From: b, To: "sink", AmountCents: 1, Currency: "EUR"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Handle(frame); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard batch returned %v, want ErrCrossShard", err)
	}
	// A cross-shard refusal must not look like a dead primary.
	if FailoverTrigger(fmt.Errorf("wrapped: %w", ErrCrossShard)) {
		t.Fatal("ErrCrossShard must not trigger failover")
	}

	// A single-shard batch (same debit account) still routes normally.
	same, err := core.EncodeMessage(&core.SubmitBatch{Txs: []core.Transaction{
		{ID: "b1", From: a, To: "sink", AmountCents: 1, Currency: "EUR"},
		{ID: "b2", From: a, To: "sink2", AmountCents: 2, Currency: "EUR"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if idx, err := r.route(same); err != nil || idx != r.ShardFor(a) {
		t.Fatalf("single-shard batch routed to %d (err %v), want %d", idx, err, r.ShardFor(a))
	}
}

// ---------------------------------------------------------------------
// Pin tables
// ---------------------------------------------------------------------

// Abandoned pins must not accumulate without bound, the newest pins
// must survive eviction of older generations, and eviction must be
// deterministic (wholesale generation drops, no random iteration).
func TestPinTableBounded(t *testing.T) {
	pt := newPinTable[int](4)
	for i := 0; i < 100; i++ {
		pt.put(i, i%3)
	}
	if pt.size() > 8 {
		t.Fatalf("pin table holds %d entries, cap is 2×4", pt.size())
	}
	// The newest cap-worth of pins always survives.
	for i := 96; i < 100; i++ {
		if v, ok := pt.get(i); !ok || v != i%3 {
			t.Fatalf("recent pin %d lost (got %d, %v)", i, v, ok)
		}
	}
	// Ancient pins are gone.
	if _, ok := pt.get(0); ok {
		t.Fatal("pin 0 survived 100 inserts into a cap-4 table")
	}
	// Deletion removes from either generation.
	pt.put(200, 1)
	pt.del(200)
	if _, ok := pt.get(200); ok {
		t.Fatal("deleted pin still present")
	}
	// Re-pinning refreshes: the key moves to the current generation and
	// survives a full cap-worth of newer inserts.
	pt2 := newPinTable[int](4)
	pt2.put(300, 2)
	for i := 0; i < 3; i++ {
		pt2.put(400+i, 0)
	}
	pt2.put(300, 2) // refresh just before rotation
	for i := 0; i < 4; i++ {
		pt2.put(500+i, 0)
	}
	if _, ok := pt2.get(300); !ok {
		t.Fatal("refreshed pin evicted with its old generation")
	}
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

func TestManifestRoundTrip(t *testing.T) {
	b := store.NewMemBackend()

	if _, ok, err := ReadNodeManifest(b); err != nil || ok {
		t.Fatalf("virgin backend: ok=%v err=%v, want absent", ok, err)
	}

	m := NodeManifest{Epoch: 7, Role: NodeRoleFollower}
	if err := WriteNodeManifest(b, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, ok, err := ReadNodeManifest(b)
	if err != nil || !ok || got != m {
		t.Fatalf("read: %+v ok=%v err=%v, want %+v", got, ok, err, m)
	}

	// Overwrite replaces the record completely.
	m = NodeManifest{Epoch: 8, Role: NodeRolePrimary}
	if err := WriteNodeManifest(b, m); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got, _, err = ReadNodeManifest(b); err != nil || got != m {
		t.Fatalf("rewrite mangled: %+v (err %v)", got, err)
	}
}

// A present-but-garbled manifest must fail loudly, never read as a
// fresh start — bootstrapping over state we cannot interpret is how
// lineages get clobbered.
func TestManifestRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{}, {0x01}, []byte("not a manifest")} {
		b := store.NewMemBackend()
		f, err := b.Create(nodeManifestName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, err := ReadNodeManifest(b); err == nil {
			t.Errorf("read garbage manifest %q as valid", data)
		}
	}
}
