// Package cryptoutil provides the cryptographic substrate shared by the
// software TPM, the attestation infrastructure, and the trusted-path
// protocol: digest helpers matching TPM v1.2 conventions (SHA-1), HMAC
// helpers, RSA key management with a committed simulation key pool, and a
// big-endian serialization buffer matching TPM wire structure style.
package cryptoutil

import (
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/x509"
	_ "embed"
	"encoding/asn1"
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
// RSA key generation costs ~50–400 ms per key, and a test run builds
// hundreds of simulated platforms, so simulations draw their keys from a
// committed pool instead: keypool.der holds PoolSize RSA-2048 keys in
// PKCS#1 DER, concatenated, generated once by the go:generate line
// below (regenerating changes every key, so TestPooledKeyModuliPinned's
// digests change with it). A slot is parsed on first use and cached.
// The keys are public: they are for simulation only, and a deployed
// binary generates its own from crypto/rand (GenerateRSAKey).

//go:generate sh -c ": > keypool.der; seq 64 | while read -r _; do openssl genrsa 2048 2>/dev/null | openssl rsa -traditional -outform DER >> keypool.der; done"

// PoolSize is the number of keys in the pool.
const PoolSize = 64

//go:embed keypool.der
var keyPoolDER []byte

var keyPool [PoolSize]struct {
	once sync.Once
	key  *rsa.PrivateKey
	err  error
}

// PooledKey returns the RSA-2048 key in pool slot idx mod PoolSize. The
// keys are public, committed with the source, and for simulation only.
// Indices that differ by a multiple of PoolSize yield the same key, in
// every process.
func PooledKey(idx int) (*rsa.PrivateKey, error) {
	if idx < 0 {
		return nil, fmt.Errorf("cryptoutil: pooled key index %d is negative", idx)
	}
	i := idx % PoolSize
	slot := &keyPool[i]
	slot.once.Do(func() { slot.key, slot.err = parsePoolSlot(i) })
	return slot.key, slot.err
}

// parsePoolSlot parses the slot-th DER key of the pool.
func parsePoolSlot(slot int) (*rsa.PrivateKey, error) {
	rest := keyPoolDER
	var der asn1.RawValue
	for i := 0; i <= slot; i++ {
		var err error
		if rest, err = asn1.Unmarshal(rest, &der); err != nil {
			return nil, fmt.Errorf("cryptoutil: key pool entry %d: %w", i, err)
		}
	}
	k, err := x509.ParsePKCS1PrivateKey(der.FullBytes)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: key pool entry %d: %w", slot, err)
	}
	return k, nil
}
