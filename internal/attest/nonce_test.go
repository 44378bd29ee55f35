package attest

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unitp/internal/sim"
)

// TestByteOrderMatchesBytesCompare checks ByteOrder against a plain
// bytes.Compare sort, including nonces that share their first eight
// bytes (the tie-break path) and duplicates.
func TestByteOrderMatchesBytesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nonces := make([]Nonce, 500)
	for i := range nonces {
		rng.Read(nonces[i][:])
		if i%5 == 0 && i > 0 {
			copy(nonces[i][:8], nonces[i-1][:8]) // shared prefix
		}
	}
	nonces = append(nonces, nonces[7], Nonce{}, Nonce{0xFF})
	got := make([]Nonce, 0, len(nonces))
	for _, at := range ByteOrder(nonces) {
		got = append(got, nonces[at])
	}
	want := slices.Clone(nonces)
	slices.SortFunc(want, func(a, b Nonce) int { return bytes.Compare(a[:], b[:]) })
	if !slices.Equal(got, want) {
		t.Fatal("ByteOrder disagrees with bytes.Compare order")
	}
	if len(ByteOrder(nil)) != 0 {
		t.Fatal("ByteOrder of no nonces is not empty")
	}
}

// TestExportIsByteOrdered checks Export lists issued and spent nonces
// in ascending byte order with the right issue times, and that Restore
// takes the export back.
func TestExportIsByteOrdered(t *testing.T) {
	clock := sim.NewVirtualClock()
	c := NewNonceCache(clock, sim.NewRand(9), time.Minute)
	at := map[Nonce]time.Time{}
	for i := 0; i < 40; i++ {
		n := c.Issue()
		at[n] = clock.Now()
		clock.Sleep(time.Second)
		if i%3 == 0 {
			if err := c.Redeem(n); err != nil {
				t.Fatal(err)
			}
			delete(at, n)
		}
	}
	issued, spent, issuedCount, redeemedCount := c.Export()
	if len(issued) != len(at) || len(spent) != 14 || issuedCount != 40 || redeemedCount != 14 {
		t.Fatalf("export: %d issued, %d spent, counts %d/%d", len(issued), len(spent), issuedCount, redeemedCount)
	}
	for i, in := range issued {
		if !in.At.Equal(at[in.Nonce]) {
			t.Fatalf("issued %x at %v, want %v", in.Nonce, in.At, at[in.Nonce])
		}
		if i > 0 && bytes.Compare(issued[i-1].Nonce[:], in.Nonce[:]) >= 0 {
			t.Fatal("issued nonces not in ascending byte order")
		}
	}
	for i := 1; i < len(spent); i++ {
		if bytes.Compare(spent[i-1][:], spent[i][:]) >= 0 {
			t.Fatal("spent nonces not in ascending byte order")
		}
	}

	r := NewNonceCache(clock, sim.NewRand(10), time.Minute)
	r.Restore(issued, spent, issuedCount, redeemedCount)
	i2, s2, ic2, rc2 := r.Export()
	if !slices.Equal(i2, issued) || !slices.Equal(s2, spent) || ic2 != issuedCount || rc2 != redeemedCount {
		t.Fatal("Restore(Export()) does not export the same state")
	}
	if err := r.Redeem(spent[0]); err == nil {
		t.Fatal("restored cache redeemed a spent nonce")
	}
	if err := r.Redeem(issued[0].Nonce); err != nil {
		t.Fatalf("restored cache refused an issued nonce: %v", err)
	}
}

// TestSpentLogMatchesModel drives a NonceCache through enough
// redemptions to merge its recent run into the sorted spent log several
// times, against a map[Nonce]bool model: a replay is refused with
// ErrNonceReplayed whether its nonce is still in the run or already
// merged, an unknown nonce with ErrNonceUnknown, and Export's spent list
// is the model's key set in ascending byte order, also after Restore.
func TestSpentLogMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	clock := sim.NewVirtualClock()
	c := NewNonceCache(clock, sim.NewRand(11), 0)
	model := map[Nonce]bool{}
	var spentList, issued []Nonce
	checkExport := func(when string) {
		t.Helper()
		_, spent, _, _ := c.Export()
		want := make([]Nonce, 0, len(model))
		for n := range model {
			want = append(want, n)
		}
		slices.SortFunc(want, func(a, b Nonce) int { return bytes.Compare(a[:], b[:]) })
		if !slices.Equal(spent, want) {
			t.Fatalf("%s: exported %d spent nonces, model holds %d (or order differs)", when, len(spent), len(want))
		}
	}
	for i := 0; i < 12_000; i++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(issued) == 0:
			issued = append(issued, c.Issue())
		case r < 8:
			at := rng.Intn(len(issued))
			n := issued[at]
			issued = slices.Delete(issued, at, at+1)
			if err := c.Redeem(n); err != nil {
				t.Fatalf("op %d: redeem of an issued nonce: %v", i, err)
			}
			model[n] = true
			spentList = append(spentList, n)
		case r == 8 && len(spentList) > 0:
			// Replays of the newest (likely still in the run) and of a
			// random older redemption (likely merged).
			for _, n := range []Nonce{spentList[len(spentList)-1], spentList[rng.Intn(len(spentList))]} {
				if err := c.Redeem(n); !errors.Is(err, ErrNonceReplayed) {
					t.Fatalf("op %d: replay answered %v", i, err)
				}
			}
		default:
			var n Nonce
			rng.Read(n[:])
			if err := c.Redeem(n); !errors.Is(err, ErrNonceUnknown) {
				t.Fatalf("op %d: unknown nonce answered %v", i, err)
			}
		}
		if i == 7000 {
			if len(c.spent) < 2*spentRun {
				t.Fatalf("%d nonces merged before the first Export: the run never filled twice", len(c.spent))
			}
			checkExport("mid-run")
		}
	}
	checkExport("end")

	// A restored cache refuses every replay and exports the same list.
	is, spent, ic, rc := c.Export()
	r := NewNonceCache(clock, sim.NewRand(12), 0)
	r.Restore(is, spent, ic, rc)
	c = r
	checkExport("after Restore")
	for _, n := range spentList {
		if err := c.Redeem(n); !errors.Is(err, ErrNonceReplayed) {
			t.Fatalf("restored cache answered a replay with %v", err)
		}
	}

	// A spent list out of order and with duplicates restores as a set.
	shuffled := append(slices.Clone(spent), spent[:10]...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	c = NewNonceCache(clock, sim.NewRand(13), 0)
	c.Restore(nil, shuffled, ic, rc)
	checkExport("after an unordered Restore")
}
