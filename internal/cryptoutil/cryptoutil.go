// Package cryptoutil provides the cryptographic substrate shared by the
// software TPM, the attestation infrastructure, and the trusted-path
// protocol: digest helpers matching TPM v1.2 conventions (SHA-1), HMAC
// helpers, RSA key management with a deterministic test pool, and a
// big-endian serialization buffer matching TPM wire structure style.
package cryptoutil

import (
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"sync"
)

// DigestSize is the size in bytes of a TPM v1.2 digest (SHA-1).
const DigestSize = 20

// Digest is a TPM v1.2 digest value. TPM 1.2 is hard-wired to SHA-1; this
// reproduction keeps that for PCR fidelity while using SHA-256 at the
// protocol layer where the original design is hash-agile.
type Digest [DigestSize]byte

// SHA1 computes the TPM-style digest of data.
func SHA1(data []byte) Digest {
	return sha1.Sum(data)
}

// SHA1Concat computes SHA-1 over the concatenation of the given chunks
// without intermediate allocation.
func SHA1Concat(chunks ...[]byte) Digest {
	h := sha1.New()
	for _, c := range chunks {
		h.Write(c)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// ExtendDigest implements the TPM PCR extend operation:
// new = SHA1(old || measurement).
func ExtendDigest(old, measurement Digest) Digest {
	return SHA1Concat(old[:], measurement[:])
}

// IsZero reports whether the digest is all zero bytes (the post-DRTM reset
// value of a dynamic PCR).
func (d Digest) IsZero() bool {
	var zero Digest
	return d == zero
}

// IsOnes reports whether the digest is all 0xFF bytes (the power-on value
// of a dynamic PCR before any late launch).
func (d Digest) IsOnes() bool {
	for _, b := range d {
		if b != 0xFF {
			return false
		}
	}
	return true
}

// String renders the digest as lowercase hex, truncated for logs.
func (d Digest) String() string {
	return fmt.Sprintf("%x", d[:8])
}

// Hex renders the full digest as lowercase hex.
func (d Digest) Hex() string {
	return fmt.Sprintf("%x", d[:])
}

// OnesDigest returns the all-0xFF digest used as the power-on value of
// dynamically resettable PCRs.
func OnesDigest() Digest {
	var d Digest
	for i := range d {
		d[i] = 0xFF
	}
	return d
}

// SHA256Sum returns the SHA-256 digest of data. Protocol-layer structures
// (transactions, nonces) use SHA-256.
func SHA256Sum(data []byte) [32]byte {
	return sha256.Sum256(data)
}

// HMACSHA256 computes HMAC-SHA256 of data under key.
func HMACSHA256(key, data []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(data)
	return m.Sum(nil)
}

// VerifyHMACSHA256 verifies mac against HMAC-SHA256(key, data) in constant
// time.
func VerifyHMACSHA256(key, data, mac []byte) bool {
	want := HMACSHA256(key, data)
	return hmac.Equal(want, mac)
}

// ConstantTimeEqual compares two byte slices in constant time.
func ConstantTimeEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}

// GenerateRSAKey creates an RSA private key of the given size from the
// provided randomness source, wrapping the error with context.
func GenerateRSAKey(random io.Reader, bits int) (*rsa.PrivateKey, error) {
	key, err := rsa.GenerateKey(random, bits)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generate RSA-%d key: %w", bits, err)
	}
	return key, nil
}

// DefaultRSABits is the modulus size used for EKs and AIKs, matching the
// TPM v1.2 requirement.
const DefaultRSABits = 2048

// Key pool
//
// RSA key generation costs ~50–400 ms per key; a test run constructs dozens
// of simulated platforms. PooledKey hands out process-lifetime cached keys,
// so each index costs one generation per process. The keys are not
// reproducible across processes: rsa.GenerateKey does not keep to the
// seeded stream it is given, so two processes asking for the same index get
// different keys. Production-style callers that need unique keys use
// GenerateRSAKey directly.

var (
	poolMu   sync.Mutex
	poolKeys = map[int]*rsa.PrivateKey{}
)

// PooledKey returns the idx-th pooled RSA-2048 key, generating and caching
// it on first use. Within one process an index always yields the same key;
// across processes it does not (see above).
func PooledKey(idx int) (*rsa.PrivateKey, error) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if k, ok := poolKeys[idx]; ok {
		return k, nil
	}
	seed := sha256.Sum256([]byte(fmt.Sprintf("unitp-keypool-%d", idx)))
	k, err := rsa.GenerateKey(newDRBG(seed), DefaultRSABits)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: pooled key %d: %w", idx, err)
	}
	poolKeys[idx] = k
	return k, nil
}

// drbg is a minimal SHA-256 counter DRBG implementing io.Reader, used only
// to derive the deterministic key pool.
type drbg struct {
	key     [32]byte
	counter uint64
	buf     []byte
}

func newDRBG(key [32]byte) *drbg { return &drbg{key: key} }

func (d *drbg) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(d.buf) == 0 {
			h := sha256.New()
			h.Write(d.key[:])
			var ctr [8]byte
			for i := 0; i < 8; i++ {
				ctr[i] = byte(d.counter >> (56 - 8*i))
			}
			d.counter++
			h.Write(ctr[:])
			d.buf = h.Sum(nil)
		}
		c := copy(p, d.buf)
		d.buf = d.buf[c:]
		p = p[c:]
	}
	return n, nil
}
