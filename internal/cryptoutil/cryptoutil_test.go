package cryptoutil

import (
	"bytes"
	"crypto/sha1"
	"testing"
	"testing/quick"
)

func TestSHA1MatchesStdlib(t *testing.T) {
	data := []byte("uni-directional trusted path")
	want := sha1.Sum(data)
	if got := SHA1(data); got != Digest(want) {
		t.Fatalf("SHA1 = %x, want %x", got, want)
	}
}

func TestSHA1ConcatEqualsSingleShot(t *testing.T) {
	a, b, c := []byte("one"), []byte("two"), []byte("three")
	joined := append(append(append([]byte{}, a...), b...), c...)
	if SHA1Concat(a, b, c) != SHA1(joined) {
		t.Fatal("SHA1Concat differs from SHA1 of concatenation")
	}
}

func TestExtendDigestMatchesSpec(t *testing.T) {
	old := SHA1([]byte("pcr"))
	m := SHA1([]byte("measurement"))
	want := SHA1(append(append([]byte{}, old[:]...), m[:]...))
	if got := ExtendDigest(old, m); got != want {
		t.Fatalf("ExtendDigest = %x, want %x", got, want)
	}
}

func TestExtendDigestOrderMatters(t *testing.T) {
	a := SHA1([]byte("a"))
	b := SHA1([]byte("b"))
	if ExtendDigest(a, b) == ExtendDigest(b, a) {
		t.Fatal("extend must not be commutative")
	}
}

func TestDigestPredicates(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest not recognized")
	}
	if zero.IsOnes() {
		t.Fatal("zero digest claimed to be ones")
	}
	ones := OnesDigest()
	if !ones.IsOnes() {
		t.Fatal("ones digest not recognized")
	}
	if ones.IsZero() {
		t.Fatal("ones digest claimed to be zero")
	}
	d := SHA1([]byte("x"))
	if d.IsZero() || d.IsOnes() {
		t.Fatal("hash output claimed to be sentinel value")
	}
}

func TestDigestStrings(t *testing.T) {
	d := SHA1([]byte("x"))
	if len(d.Hex()) != 40 {
		t.Fatalf("Hex length = %d, want 40", len(d.Hex()))
	}
	if len(d.String()) != 16 {
		t.Fatalf("String length = %d, want 16", len(d.String()))
	}
}

func TestHMACRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	data := []byte("transaction payload")
	mac := HMACSHA256(key, data)
	if !VerifyHMACSHA256(key, data, mac) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyHMACSHA256(key, []byte("tampered"), mac) {
		t.Fatal("MAC accepted for different data")
	}
	if VerifyHMACSHA256([]byte("wrong key 00000000000000000000000"), data, mac) {
		t.Fatal("MAC accepted under wrong key")
	}
	mac[0] ^= 1
	if VerifyHMACSHA256(key, data, mac) {
		t.Fatal("tampered MAC accepted")
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !ConstantTimeEqual([]byte("abc"), []byte("abc")) {
		t.Fatal("equal slices compared unequal")
	}
	if ConstantTimeEqual([]byte("abc"), []byte("abd")) {
		t.Fatal("unequal slices compared equal")
	}
	if ConstantTimeEqual([]byte("abc"), []byte("ab")) {
		t.Fatal("different lengths compared equal")
	}
}

func TestPooledKeyCachedAndDistinct(t *testing.T) {
	k0a, err := PooledKey(0)
	if err != nil {
		t.Fatal(err)
	}
	k0b, err := PooledKey(0)
	if err != nil {
		t.Fatal(err)
	}
	if k0a != k0b {
		t.Fatal("PooledKey(0) not cached")
	}
	k1, err := PooledKey(1)
	if err != nil {
		t.Fatal(err)
	}
	if k0a.N.Cmp(k1.N) == 0 {
		t.Fatal("distinct pool indices produced the same modulus")
	}
	if k0a.N.BitLen() != DefaultRSABits {
		t.Fatalf("pool key size = %d, want %d", k0a.N.BitLen(), DefaultRSABits)
	}
}

func TestGenerateRSAKey(t *testing.T) {
	seed := SHA256Sum([]byte("test"))
	k, err := GenerateRSAKey(newDRBG(seed), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("generated key invalid: %v", err)
	}
}

func TestBufferRoundTrip(t *testing.T) {
	d := SHA1([]byte("digest"))
	b := NewBuffer(64)
	b.PutUint8(0xAB)
	b.PutUint16(0x1234)
	b.PutUint32(0xDEADBEEF)
	b.PutUint64(0x0102030405060708)
	b.PutDigest(d)
	b.PutBytes([]byte("hello"))
	b.PutString("world")
	b.PutBool(true)
	b.PutBool(false)
	b.PutRaw([]byte{9, 9})

	r := NewReader(b.Bytes())
	if got := r.Uint8(); got != 0xAB {
		t.Fatalf("Uint8 = %#x", got)
	}
	if got := r.Uint16(); got != 0x1234 {
		t.Fatalf("Uint16 = %#x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0102030405060708 {
		t.Fatalf("Uint64 = %#x", got)
	}
	if got := r.Digest(); got != d {
		t.Fatalf("Digest = %x", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("String = %q", got)
	}
	if !r.Bool() {
		t.Fatal("first Bool = false")
	}
	if r.Bool() {
		t.Fatal("second Bool = true")
	}
	if got := r.Raw(2); !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.ExpectEOF(); err != nil {
		t.Fatalf("ExpectEOF: %v", err)
	}
}

func TestReaderUnderflow(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.Uint32()
	if r.Err() == nil {
		t.Fatal("underflow not reported")
	}
	// Sticky error: subsequent reads keep failing.
	if got := r.Uint8(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func TestReaderRejectsHostileLength(t *testing.T) {
	b := NewBuffer(8)
	b.PutUint32(0xFFFFFFFF) // claimed length far beyond the data
	r := NewReader(b.Bytes())
	if got := r.Bytes(); got != nil {
		t.Fatalf("hostile length returned data: %v", got)
	}
	if r.Err() == nil {
		t.Fatal("hostile length prefix not rejected")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.Uint8()
	if err := r.ExpectEOF(); err == nil {
		t.Fatal("trailing bytes not reported")
	}
}

func TestReaderBytesCopies(t *testing.T) {
	b := NewBuffer(16)
	b.PutBytes([]byte("abc"))
	wire := b.Bytes()
	r := NewReader(wire)
	got := r.Bytes()
	wire[len(wire)-1] = 'X' // mutate the underlying buffer
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatal("Reader.Bytes did not copy")
	}
}

func TestBufferReaderProperty(t *testing.T) {
	// Property: any (uint32, bytes, string, bool) tuple round-trips.
	f := func(v uint32, p []byte, s string, flag bool) bool {
		b := NewBuffer(len(p) + len(s) + 16)
		b.PutUint32(v)
		b.PutBytes(p)
		b.PutString(s)
		b.PutBool(flag)
		r := NewReader(b.Bytes())
		gv := r.Uint32()
		gp := r.Bytes()
		gs := r.String()
		gf := r.Bool()
		if r.ExpectEOF() != nil {
			return false
		}
		return gv == v && bytes.Equal(gp, p) && gs == s && gf == flag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDRBGDeterminism(t *testing.T) {
	seed := SHA256Sum([]byte("seed"))
	a := newDRBG(seed)
	b := newDRBG(seed)
	ba := make([]byte, 100)
	bb := make([]byte, 100)
	_, _ = a.Read(ba)
	_, _ = b.Read(bb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("DRBG not deterministic")
	}
}

// TestBeginEndFieldMatchesPutBytes checks a field encoded in place is
// byte-identical to the same contents written with PutBytes, empty
// and nested fields included.
func TestBeginEndFieldMatchesPutBytes(t *testing.T) {
	inner := NewBuffer(16)
	inner.PutString("tx-7")
	inner.PutUint64(42)

	want := NewBuffer(64)
	want.PutUint8(1)
	want.PutBytes(inner.Bytes())
	want.PutBytes(nil)
	outer := NewBuffer(16)
	outer.PutBytes(inner.Bytes())
	want.PutBytes(outer.Bytes())

	got := NewBuffer(1) // forces growth mid-field
	got.PutUint8(1)
	start := got.BeginField()
	got.PutString("tx-7")
	got.PutUint64(42)
	got.EndField(start)
	got.EndField(got.BeginField())
	start = got.BeginField()
	nested := got.BeginField()
	got.PutString("tx-7")
	got.PutUint64(42)
	got.EndField(nested)
	got.EndField(start)

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("in-place fields = %x, want %x", got.Bytes(), want.Bytes())
	}
}
