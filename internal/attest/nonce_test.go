package attest

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
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
