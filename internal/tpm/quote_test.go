package tpm

import (
	"errors"
	"testing"

	"unitp/internal/cryptoutil"
)

func quoteFixture(t *testing.T) (*TPM, Handle, *Quote) {
	t.Helper()
	dev, _ := newTestTPM(t)
	h, _, err := dev.CreateAIK()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a late launch so the quoted PCRs carry meaning.
	if err := dev.PCRReset(4, PCRDRTM); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Extend(4, PCRDRTM, cryptoutil.SHA1([]byte("pal-image"))); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Extend(2, PCRApp, cryptoutil.SHA1([]byte("output"))); err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 20)
	copy(nonce, "nonce-for-the-quote!")
	q, err := dev.Quote(0, h, nonce, []int{PCRDRTM, PCRApp})
	if err != nil {
		t.Fatal(err)
	}
	return dev, h, q
}

func TestQuoteVerifies(t *testing.T) {
	dev, h, q := quoteFixture(t)
	_ = h
	key := dev.aiks[h]
	if err := VerifyQuote(&key.PublicKey, q); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
	if len(q.Selection) != 2 || q.Selection[0] != PCRDRTM || q.Selection[1] != PCRApp {
		t.Fatalf("selection = %v", q.Selection)
	}
	v17, ok := q.PCRValue(PCRDRTM)
	if !ok {
		t.Fatal("PCR17 missing from quote")
	}
	want := cryptoutil.ExtendDigest(cryptoutil.Digest{}, cryptoutil.SHA1([]byte("pal-image")))
	if v17 != want {
		t.Fatal("quoted PCR17 value wrong")
	}
	if _, ok := q.PCRValue(5); ok {
		t.Fatal("PCRValue returned a PCR not in the selection")
	}
}

func TestQuoteRejectsWrongKey(t *testing.T) {
	dev, _, q := quoteFixture(t)
	otherKey, err := PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	_ = dev
	if err := VerifyQuote(&otherKey.PublicKey, q); err == nil {
		t.Fatal("quote verified under unrelated key")
	}
}

func TestQuoteTamperDetection(t *testing.T) {
	dev, h, q := quoteFixture(t)
	key := dev.aiks[h]

	// Tamper with a reported PCR value: composite recomputation must fail.
	tampered := *q
	tampered.PCRValues = append([]cryptoutil.Digest{}, q.PCRValues...)
	tampered.PCRValues[0] = cryptoutil.SHA1([]byte("forged"))
	if err := VerifyQuote(&key.PublicKey, &tampered); !errors.Is(err, ErrQuoteInconsistent) {
		t.Fatalf("tampered PCR value: %v, want ErrQuoteInconsistent", err)
	}

	// Tamper with the nonce: signature must fail.
	tampered2 := *q
	tampered2.ExternalData[0] ^= 1
	if err := VerifyQuote(&key.PublicKey, &tampered2); err == nil {
		t.Fatal("nonce substitution accepted")
	}

	// Tamper with the signature bytes.
	tampered3 := *q
	tampered3.Signature = append([]byte{}, q.Signature...)
	tampered3.Signature[10] ^= 1
	if err := VerifyQuote(&key.PublicKey, &tampered3); err == nil {
		t.Fatal("corrupted signature accepted")
	}

	// Consistent-but-different PCR values: recompute composite too, so
	// the signature check must catch it.
	tampered4 := *q
	tampered4.PCRValues = []cryptoutil.Digest{
		cryptoutil.SHA1([]byte("forged")),
		cryptoutil.SHA1([]byte("forged2")),
	}
	c, err := ComputeComposite(tampered4.Selection, tampered4.PCRValues)
	if err != nil {
		t.Fatal(err)
	}
	tampered4.CompositeDigest = c
	if err := VerifyQuote(&key.PublicKey, &tampered4); err == nil {
		t.Fatal("re-hashed forged PCR values accepted — signature did not bind composite")
	}
}

func TestQuoteErrors(t *testing.T) {
	dev, _ := newTestTPM(t)
	h, _, err := dev.CreateAIK()
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, 20)
	if _, err := dev.Quote(0, h, nonce[:19], []int{17}); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("short nonce: %v", err)
	}
	if _, err := dev.Quote(0, Handle(0xdead), nonce, []int{17}); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("unknown handle: %v", err)
	}
	if _, err := dev.Quote(0, h, nonce, nil); !errors.Is(err, ErrEmptySelection) {
		t.Fatalf("empty selection: %v", err)
	}
	if _, err := dev.Quote(0, h, nonce, []int{50}); !errors.Is(err, ErrBadPCRIndex) {
		t.Fatalf("bad index: %v", err)
	}
	if _, err := dev.Quote(7, h, nonce, []int{17}); !errors.Is(err, ErrBadLocality) {
		t.Fatalf("bad locality: %v", err)
	}
}

func TestVerifyQuoteNilArgs(t *testing.T) {
	if err := VerifyQuote(nil, &Quote{}); err == nil {
		t.Fatal("nil key accepted")
	}
	k, err := cryptoutil.PooledKey(1001)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(&k.PublicKey, nil); err == nil {
		t.Fatal("nil quote accepted")
	}
}

func TestQuoteMarshalRoundTrip(t *testing.T) {
	dev, h, q := quoteFixture(t)
	key := dev.aiks[h]
	wire := q.Marshal()
	got, err := UnmarshalQuote(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(&key.PublicKey, got); err != nil {
		t.Fatalf("round-tripped quote fails verification: %v", err)
	}
	if got.CompositeDigest != q.CompositeDigest {
		t.Fatal("composite digest changed in round trip")
	}
	if got.ExternalData != q.ExternalData {
		t.Fatal("external data changed in round trip")
	}
}

func TestUnmarshalQuoteRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalQuote([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid quote with trailing junk must be rejected.
	_, _, q := quoteFixture(t)
	wire := append(q.Marshal(), 0xFF)
	if _, err := UnmarshalQuote(wire); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestQuoteBindsNonce(t *testing.T) {
	dev, _ := newTestTPM(t)
	h, pub, err := dev.CreateAIK()
	if err != nil {
		t.Fatal(err)
	}
	n1 := make([]byte, 20)
	n2 := make([]byte, 20)
	n2[0] = 1
	q1, err := dev.Quote(0, h, n1, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := dev.Quote(0, h, n2, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	// Swapping the external data between otherwise identical quotes must
	// break verification (this is the replay defence).
	q1.ExternalData = q2.ExternalData
	if err := VerifyQuote(pub, q1); err == nil {
		t.Fatal("quote verified with swapped nonce")
	}
}
