package sim

import (
	"bytes"
	"crypto/rand"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockStartsAtEpoch(t *testing.T) {
	c := NewVirtualClock()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
}

func TestVirtualClockSleepAdvances(t *testing.T) {
	c := NewVirtualClock()
	c.Sleep(250 * time.Millisecond)
	c.Sleep(750 * time.Millisecond)
	if got, want := c.Now(), Epoch.Add(time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	if got := c.Elapsed(); got != time.Second {
		t.Fatalf("Elapsed() = %v, want 1s", got)
	}
}

func TestVirtualClockIgnoresNegativeSleep(t *testing.T) {
	c := NewVirtualClock()
	c.Sleep(-time.Hour)
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("negative sleep moved the clock: %v", got)
	}
}

func TestVirtualClockAt(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewVirtualClockAt(start)
	if got := c.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestVirtualClockConcurrentSleeps(t *testing.T) {
	c := NewVirtualClock()
	const workers, sleeps = 8, 100
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func() {
			for j := 0; j < sleeps; j++ {
				c.Sleep(time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	if got, want := c.Elapsed(), workers*sleeps*time.Millisecond; got != want {
		t.Fatalf("Elapsed() = %v, want %v", got, want)
	}
}

func TestStopwatch(t *testing.T) {
	c := NewVirtualClock()
	sw := NewStopwatch(c)
	c.Sleep(42 * time.Millisecond)
	if got := sw.Elapsed(); got != 42*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 42ms", got)
	}
	if got := sw.Restart(); got != 42*time.Millisecond {
		t.Fatalf("Restart() = %v, want 42ms", got)
	}
	c.Sleep(8 * time.Millisecond)
	if got := sw.Elapsed(); got != 8*time.Millisecond {
		t.Fatalf("Elapsed() after restart = %v, want 8ms", got)
	}
}

func TestWallClockSleepNonNegative(t *testing.T) {
	var c WallClock
	start := time.Now()
	c.Sleep(-time.Hour) // must not block
	if time.Since(start) > time.Second {
		t.Fatal("negative wall sleep blocked")
	}
	if c.Now().IsZero() {
		t.Fatal("WallClock.Now returned zero time")
	}
}

func TestFormatDuration(t *testing.T) {
	if got, want := FormatDuration(1500*time.Microsecond), "1.500 ms"; got != want {
		t.Fatalf("FormatDuration = %q, want %q", got, want)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(7)
	b := NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical 64-bit values", same)
	}
}

func TestRandForkIndependence(t *testing.T) {
	root := NewRand(9)
	a := root.Fork("tpm")
	b := root.Fork("network")
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams produced identical first value")
	}
	// Forking again with the same label from an untouched root must
	// reproduce the same child stream.
	root2 := NewRand(9)
	a2 := root2.Fork("tpm")
	for i := 0; i < 16; i++ {
		// a has already consumed one value.
		_ = a2
		break
	}
	c1 := NewRand(9).Fork("tpm")
	c2 := NewRand(9).Fork("tpm")
	for i := 0; i < 16; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same-label forks diverged at %d", i)
		}
	}
}

func TestRandRead(t *testing.T) {
	r := NewRand(3)
	buf1 := make([]byte, 100)
	if n, err := r.Read(buf1); err != nil || n != 100 {
		t.Fatalf("Read = (%d, %v), want (100, nil)", n, err)
	}
	buf2 := NewRand(3).Bytes(100)
	if !bytes.Equal(buf1, buf2) {
		t.Fatal("Read and Bytes disagree for same seed")
	}
	if bytes.Equal(buf1[:50], buf1[50:]) {
		t.Fatal("output repeats within 100 bytes")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered %d values in 1000 draws, want 10", len(seen))
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandBoolEdges(t *testing.T) {
	r := NewRand(17)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("Bool(0.3) frequency = %v, want ~0.3", frac)
	}
}

func TestRandDuration(t *testing.T) {
	r := NewRand(19)
	min, max := 10*time.Millisecond, 20*time.Millisecond
	for i := 0; i < 200; i++ {
		d := r.Duration(min, max)
		if d < min || d > max {
			t.Fatalf("Duration = %v outside [%v, %v]", d, min, max)
		}
	}
	if got := r.Duration(max, min); got != max {
		t.Fatalf("inverted range should return min arg; got %v", got)
	}
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(23)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(100, 15)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-100) > 1 {
		t.Fatalf("sample mean = %v, want ~100", mean)
	}
	if sd := math.Sqrt(variance); math.Abs(sd-15) > 1 {
		t.Fatalf("sample stddev = %v, want ~15", sd)
	}
}

func TestRandNormalDurationNonNegative(t *testing.T) {
	r := NewRand(29)
	for i := 0; i < 1000; i++ {
		if d := r.NormalDuration(time.Millisecond, 10*time.Millisecond); d < 0 {
			t.Fatalf("NormalDuration returned negative %v", d)
		}
	}
}

func TestRandExponentialMean(t *testing.T) {
	r := NewRand(31)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(50)
	}
	if mean := sum / n; math.Abs(mean-50) > 2.5 {
		t.Fatalf("sample mean = %v, want ~50", mean)
	}
}

func TestRandShufflePermutes(t *testing.T) {
	r := NewRand(37)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestRandUniformityProperty(t *testing.T) {
	// Property: for any modulus in [2, 64], Intn covers all residues over
	// enough draws (quick check over random moduli).
	f := func(seed uint64, modRaw uint8) bool {
		mod := int(modRaw%63) + 2
		r := NewRand(seed)
		seen := make(map[int]bool)
		for i := 0; i < mod*200; i++ {
			seen[r.Intn(mod)] = true
		}
		return len(seen) == mod
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// NewRandFrom keys the stream with the reader's bytes: two sources keyed
// from crypto/rand differ, and the same key gives the same stream.
func TestNewRandFromKeysStream(t *testing.T) {
	a, err := NewRandFrom(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandFrom(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("two sources keyed from crypto/rand produce the same stream")
	}
	key := bytes.Repeat([]byte{7}, 32)
	c, _ := NewRandFrom(bytes.NewReader(key))
	d, _ := NewRandFrom(bytes.NewReader(key))
	if c.Uint64() != d.Uint64() {
		t.Fatal("one key gave two streams")
	}
	if _, err := NewRandFrom(bytes.NewReader(key[:31])); err == nil {
		t.Fatal("a short key was accepted")
	}
}
