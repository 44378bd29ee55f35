package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"sync"
	"time"
)

// Rand is a deterministic random source used by every stochastic model in
// the simulation (latency jitter, user error rates, attacker strategies).
// It also implements io.Reader, so it can stand in for crypto/rand. Note
// that rsa.GenerateKey does not keep to the stream it is given: an RSA
// key generated from a seeded Rand differs from run to run (simulations
// take theirs from cryptoutil.PooledKey).
//
// The generator is a SHA-256-based counter DRBG: slow compared to PCG but
// more than fast enough for simulation control flow, and it guarantees the
// same stream on every platform and Go version (unlike math/rand's
// generator, whose top-level functions are auto-seeded since Go 1.20).
type Rand struct {
	mu      sync.Mutex
	key     [32]byte
	counter uint64
	buf     [32]byte
	avail   int
}

var _ io.Reader = (*Rand)(nil)

// NewRand returns a deterministic source derived from seed.
func NewRand(seed uint64) *Rand {
	var seedBytes [8]byte
	binary.BigEndian.PutUint64(seedBytes[:], seed)
	r := &Rand{}
	r.key = sha256.Sum256(seedBytes[:])
	return r
}

// Fork derives an independent stream labelled by name. Subsystems fork the
// root source so that adding randomness consumption to one subsystem does
// not perturb another's stream.
func (r *Rand) Fork(name string) *Rand {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := sha256.New()
	h.Write(r.key[:])
	h.Write([]byte("/fork/"))
	h.Write([]byte(name))
	child := &Rand{}
	h.Sum(child.key[:0])
	return child
}

// refill must be called with r.mu held.
func (r *Rand) refill() {
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], r.counter)
	r.counter++
	h := sha256.New()
	h.Write(r.key[:])
	h.Write(ctr[:])
	h.Sum(r.buf[:0])
	r.avail = len(r.buf)
}

// Read fills p with deterministic pseudo-random bytes. It never fails.
func (r *Rand) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		if r.avail == 0 {
			r.refill()
		}
		c := copy(p, r.buf[len(r.buf)-r.avail:])
		r.avail -= c
		p = p[c:]
	}
	return n, nil
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	var b [8]byte
	_, _ = r.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	limit := math.MaxUint64 - math.MaxUint64%uint64(n)
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % uint64(n))
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Duration returns a uniform duration in [min, max]. If max <= min it
// returns min.
func (r *Rand) Duration(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	span := uint64(max - min)
	return min + time.Duration(r.Uint64()%(span+1))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box–Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// NormalDuration returns a normally distributed duration, truncated below
// at zero. Human reaction times and network jitter use this.
func (r *Rand) NormalDuration(mean, stddev time.Duration) time.Duration {
	v := r.Normal(float64(mean), float64(stddev))
	if v < 0 {
		return 0
	}
	return time.Duration(v)
}

// Exponential returns an exponentially distributed value with the given
// mean (inter-arrival times of transaction workloads).
func (r *Rand) Exponential(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bytes returns a fresh deterministic byte slice of length n.
func (r *Rand) Bytes(n int) []byte {
	b := make([]byte, n)
	_, _ = r.Read(b)
	return b
}
