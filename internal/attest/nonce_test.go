package attest

import (
	"bytes"
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
