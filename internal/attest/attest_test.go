package attest

import (
	"crypto/x509"
	"errors"
	"strings"
	"testing"
	"time"

	"unitp/internal/cryptoutil"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/tpm"
)

// fixture wires a full attestation stack: CA, enrolled machine with AIK
// cert, verifier approving one PAL.
type fixture struct {
	ca       *PrivacyCA
	machine  *platform.Machine
	aik      tpm.Handle
	cert     *AIKCert
	verifier *Verifier
	palImage []byte
	clock    *sim.VirtualClock
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := sim.NewVirtualClock()
	caKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	ca := NewPrivacyCA("unitp-privacy-ca", caKey, clock, sim.NewRand(0xCA))

	machine, err := platform.New(platform.Config{Clock: clock, Random: sim.NewRand(0xFA)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.EnrollEK("platform-1", machine.TPM().EK()); err != nil {
		t.Fatal(err)
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.CertifyAIK("platform-1", machine.TPM().EK(), aikPub)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(ca.PublicKey())
	palImage := []byte("confirmation-pal-v1")
	v.ApprovePAL("confirm-v1", cryptoutil.SHA1(palImage))
	return &fixture{
		ca: ca, machine: machine, aik: aik, cert: cert,
		verifier: v, palImage: palImage, clock: clock,
	}
}

// runSessionAndQuote performs a launch of the fixture PAL that extends
// outputDigest into PCR 23, then quotes with the given nonce.
func (f *fixture) runSessionAndQuote(t *testing.T, outputDigest cryptoutil.Digest, nonce Nonce) *Evidence {
	t.Helper()
	// Reset PCR23 so each session's binding is deterministic.
	if err := f.machine.TPM().PCRReset(0, tpm.PCRApp); err != nil {
		t.Fatal(err)
	}
	_, err := f.machine.LateLaunch(f.palImage, func(env *platform.LaunchEnv) error {
		_, err := env.Extend(tpm.PCRApp, outputDigest)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	quote, err := f.machine.TPM().Quote(0, f.aik, nonce[:], []int{tpm.PCRDRTM, tpm.PCRApp})
	if err != nil {
		t.Fatal(err)
	}
	return &Evidence{Cert: f.cert, Quote: quote}
}

func expectedPCR23(outputDigest cryptoutil.Digest) cryptoutil.Digest {
	return cryptoutil.ExtendDigest(cryptoutil.Digest{}, outputDigest)
}

func TestCAEnrollmentAndCertification(t *testing.T) {
	f := newFixture(t)
	if err := VerifyAIKCert(f.ca.PublicKey(), f.cert); err != nil {
		t.Fatalf("genuine cert rejected: %v", err)
	}
	if f.cert.PlatformID != "platform-1" || f.cert.Issuer != "unitp-privacy-ca" {
		t.Fatalf("cert fields: %+v", f.cert)
	}
}

func TestCARefusesUnknownAndMismatchedEK(t *testing.T) {
	f := newFixture(t)
	otherKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ca.CertifyAIK("ghost", f.machine.TPM().EK(), &otherKey.PublicKey); !errors.Is(err, ErrUnknownEK) {
		t.Fatalf("unknown platform: %v", err)
	}
	if _, err := f.ca.CertifyAIK("platform-1", &otherKey.PublicKey, &otherKey.PublicKey); !errors.Is(err, ErrEKMismatch) {
		t.Fatalf("mismatched EK: %v", err)
	}
	if _, err := f.ca.CertifyAIK("platform-1", nil, &otherKey.PublicKey); !errors.Is(err, ErrEKMismatch) {
		t.Fatalf("nil EK: %v", err)
	}
	if err := f.ca.EnrollEK("platform-1", f.machine.TPM().EK()); !errors.Is(err, ErrPlatformEnrolled) {
		t.Fatalf("double enroll: %v", err)
	}
}

// A client built for one crypto profile must be refused at certify time
// when enrolling under a server running another — not handed a cert
// that every later quote verification rejects.
func TestCertifySchemeRefusesMismatchedAIKKey(t *testing.T) {
	f := newFixture(t)
	ek := f.machine.TPM().EK()
	rsaDER := x509.MarshalPKCS1PublicKey(ek) // an RSA key where 32 Ed25519 bytes belong
	if _, err := f.ca.CertifyAIKScheme("platform-1", ek, cryptoutil.SchemeEd25519, rsaDER); err == nil {
		t.Fatal("ed25519 certify accepted an RSA-DER AIK key")
	} else if !strings.Contains(err.Error(), "ed25519") {
		t.Fatalf("mismatch error should name the profile: %v", err)
	}
	if _, err := f.ca.CertifyAIKScheme("platform-1", ek, cryptoutil.SchemeRSA, make([]byte, 32)); err == nil {
		t.Fatal("rsa certify accepted 32 raw bytes as a PKCS#1 key")
	}
	// The matched shape still certifies.
	sch, err := cryptoutil.SchemeByID(cryptoutil.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sch.GenerateKey(sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := f.ca.CertifyAIKScheme("platform-1", ek, cryptoutil.SchemeEd25519, signer.Public())
	if err != nil {
		t.Fatalf("matched-profile certify: %v", err)
	}
	if err := VerifyAIKCert(f.ca.PublicKey(), cert); err != nil {
		t.Fatalf("scheme cert rejected: %v", err)
	}
}

func TestCertTamperDetected(t *testing.T) {
	f := newFixture(t)
	tampered := *f.cert
	tampered.PlatformID = "platform-666"
	if err := VerifyAIKCert(f.ca.PublicKey(), &tampered); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("tampered cert: %v", err)
	}
	// A self-signed cert from an attacker CA must fail under the real
	// CA key.
	attackerKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	attackerCA := NewPrivacyCA("evil-ca", attackerKey, f.clock, sim.NewRand(6))
	if err := attackerCA.EnrollEK("platform-1", f.machine.TPM().EK()); err != nil {
		t.Fatal(err)
	}
	forged, err := attackerCA.CertifyAIK("platform-1", f.machine.TPM().EK(), f.cert.AIKPub)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAIKCert(f.ca.PublicKey(), forged); !errors.Is(err, ErrBadCertSignature) {
		t.Fatalf("foreign-CA cert: %v", err)
	}
}

func TestCertMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	wire := f.cert.Marshal()
	got, err := UnmarshalAIKCert(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAIKCert(f.ca.PublicKey(), got); err != nil {
		t.Fatalf("round-tripped cert rejected: %v", err)
	}
	if got.PlatformID != f.cert.PlatformID || !got.IssuedAt.Equal(f.cert.IssuedAt) {
		t.Fatal("cert fields changed in round trip")
	}
	if _, err := UnmarshalAIKCert(wire[:len(wire)/2]); err == nil {
		t.Fatal("truncated cert accepted")
	}
	if _, err := UnmarshalAIKCert([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage cert accepted")
	}
}

func TestVerifyHappyPath(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("tx-binding"))
	var nonce Nonce
	copy(nonce[:], "fresh-nonce-20-bytes")
	ev := f.runSessionAndQuote(t, out, nonce)
	res, err := f.verifier.Verify(ev, Expectations{
		Nonce:         nonce,
		ExpectedPCR23: expectedPCR23(out),
	})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.PALName != "confirm-v1" || res.PlatformID != "platform-1" {
		t.Fatalf("result = %+v", res)
	}
	if res.PALMeasurement != cryptoutil.SHA1(f.palImage) {
		t.Fatal("wrong PAL measurement in result")
	}
}

func TestVerifyRejectsWrongNonce(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("tx"))
	var n1, n2 Nonce
	n1[0], n2[0] = 1, 2
	ev := f.runSessionAndQuote(t, out, n1)
	if _, err := f.verifier.Verify(ev, Expectations{Nonce: n2, ExpectedPCR23: expectedPCR23(out)}); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("wrong nonce: %v", err)
	}
}

func TestVerifyRejectsUnapprovedPAL(t *testing.T) {
	f := newFixture(t)
	f.palImage = []byte("trojan-pal") // genuine launch of unapproved code
	out := cryptoutil.SHA1([]byte("tx"))
	var nonce Nonce
	ev := f.runSessionAndQuote(t, out, nonce)
	if _, err := f.verifier.Verify(ev, Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(out)}); !errors.Is(err, ErrUnapprovedPAL) {
		t.Fatalf("unapproved PAL: %v", err)
	}
}

func TestVerifyRejectsOSStateQuote(t *testing.T) {
	// A quote taken without any late launch (PCR17 = all-ones) must not
	// match any approved PAL.
	f := newFixture(t)
	var nonce Nonce
	quote, err := f.machine.TPM().Quote(0, f.aik, nonce[:], []int{tpm.PCRDRTM, tpm.PCRApp})
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evidence{Cert: f.cert, Quote: quote}
	if _, err := f.verifier.Verify(ev, Expectations{Nonce: nonce, SkipOutputCheck: true}); !errors.Is(err, ErrUnapprovedPAL) {
		t.Fatalf("OS-state quote: %v", err)
	}
}

func TestVerifyRejectsWrongOutput(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("genuine-tx"))
	var nonce Nonce
	ev := f.runSessionAndQuote(t, out, nonce)
	wrong := cryptoutil.SHA1([]byte("malware-tx"))
	if _, err := f.verifier.Verify(ev, Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(wrong)}); !errors.Is(err, ErrOutputMismatch) {
		t.Fatalf("wrong output: %v", err)
	}
	// SkipOutputCheck admits it (ablation).
	if _, err := f.verifier.Verify(ev, Expectations{Nonce: nonce, SkipOutputCheck: true}); err != nil {
		t.Fatalf("skip output check: %v", err)
	}
}

func TestVerifyRejectsMissingPCRs(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("tx"))
	var nonce Nonce
	// Quote covering only PCR23: no PAL identity.
	if err := f.machine.TPM().PCRReset(0, tpm.PCRApp); err != nil {
		t.Fatal(err)
	}
	_, err := f.machine.LateLaunch(f.palImage, func(env *platform.LaunchEnv) error {
		_, err := env.Extend(tpm.PCRApp, out)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	q23, err := f.machine.TPM().Quote(0, f.aik, nonce[:], []int{tpm.PCRApp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.verifier.Verify(&Evidence{Cert: f.cert, Quote: q23}, Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(out)}); !errors.Is(err, ErrMissingPCR) {
		t.Fatalf("missing PCR17: %v", err)
	}
	// Quote covering only PCR17: no output binding.
	q17, err := f.machine.TPM().Quote(0, f.aik, nonce[:], []int{tpm.PCRDRTM})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.verifier.Verify(&Evidence{Cert: f.cert, Quote: q17}, Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(out)}); !errors.Is(err, ErrMissingPCR) {
		t.Fatalf("missing PCR23: %v", err)
	}
}

func TestVerifyNilEvidence(t *testing.T) {
	f := newFixture(t)
	if _, err := f.verifier.Verify(nil, Expectations{}); err == nil {
		t.Fatal("nil evidence accepted")
	}
	if _, err := f.verifier.Verify(&Evidence{}, Expectations{}); err == nil {
		t.Fatal("empty evidence accepted")
	}
}

func TestRevokePAL(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("tx"))
	var nonce Nonce
	ev := f.runSessionAndQuote(t, out, nonce)
	f.verifier.RevokePAL("confirm-v1")
	if _, err := f.verifier.Verify(ev, Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(out)}); !errors.Is(err, ErrUnapprovedPAL) {
		t.Fatalf("revoked PAL: %v", err)
	}
	f.verifier.RevokePAL("never-existed") // must not panic
	if got := f.verifier.ApprovedPALs(); len(got) != 0 {
		t.Fatalf("approved after revoke: %v", got)
	}
}

func TestCapConventionMatchesPlatform(t *testing.T) {
	// The verifier's independent copy of the cap convention must equal
	// the platform's, or every verification would fail in deployment.
	m := cryptoutil.SHA1([]byte("any-pal"))
	if expectedCapped(m) != platform.ExpectedPCR17Capped(m) {
		t.Fatal("verifier cap convention diverged from platform")
	}
}

func TestEvidenceMarshalRoundTrip(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("tx"))
	var nonce Nonce
	ev := f.runSessionAndQuote(t, out, nonce)
	wire := ev.Marshal()
	got, err := UnmarshalEvidence(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.verifier.Verify(got, Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(out)}); err != nil {
		t.Fatalf("round-tripped evidence rejected: %v", err)
	}
	if _, err := UnmarshalEvidence(wire[:8]); err == nil {
		t.Fatal("truncated evidence accepted")
	}
}

func TestNonceCacheIssueRedeem(t *testing.T) {
	c := NewNonceCache(nil, sim.NewRand(1), 0)
	n := c.Issue()
	if c.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}
	if err := c.Redeem(n); err != nil {
		t.Fatal(err)
	}
	if err := c.Redeem(n); !errors.Is(err, ErrNonceReplayed) {
		t.Fatalf("replay: %v", err)
	}
	var forged Nonce
	forged[0] = 0xEE
	if err := c.Redeem(forged); !errors.Is(err, ErrNonceUnknown) {
		t.Fatalf("forged: %v", err)
	}
	issued, redeemed := c.Stats()
	if issued != 1 || redeemed != 1 {
		t.Fatalf("stats = %d, %d", issued, redeemed)
	}
}

func TestNonceCacheTTL(t *testing.T) {
	clock := sim.NewVirtualClock()
	c := NewNonceCache(clock, sim.NewRand(2), time.Minute)
	n := c.Issue()
	clock.Sleep(2 * time.Minute)
	if err := c.Redeem(n); !errors.Is(err, ErrNonceExpired) {
		t.Fatalf("expired: %v", err)
	}
	// Within TTL works.
	n2 := c.Issue()
	clock.Sleep(30 * time.Second)
	if err := c.Redeem(n2); err != nil {
		t.Fatal(err)
	}
}

func TestNonceCacheGC(t *testing.T) {
	clock := sim.NewVirtualClock()
	c := NewNonceCache(clock, sim.NewRand(3), time.Minute)
	for i := 0; i < 5; i++ {
		c.Issue()
	}
	clock.Sleep(2 * time.Minute)
	fresh := c.Issue()
	if got := c.Outstanding(); got != 1 {
		t.Fatalf("outstanding = %d, want 1", got)
	}
	if got := c.GC(); got != 5 {
		t.Fatalf("GC collected %d, want 5", got)
	}
	if err := c.Redeem(fresh); err != nil {
		t.Fatal(err)
	}
	// Zero-TTL cache never GCs.
	c2 := NewNonceCache(clock, sim.NewRand(4), 0)
	c2.Issue()
	if got := c2.GC(); got != 0 {
		t.Fatalf("zero-TTL GC = %d", got)
	}
}

func TestNoncesAreUnique(t *testing.T) {
	c := NewNonceCache(nil, sim.NewRand(5), 0)
	seen := make(map[Nonce]bool)
	for i := 0; i < 1000; i++ {
		n := c.Issue()
		if seen[n] {
			t.Fatal("nonce collision")
		}
		seen[n] = true
	}
}

// A verifier accepts evidence only under its own crypto profile: an
// Ed25519 verifier refuses RSA evidence and an RSA verifier refuses
// Ed25519 evidence, both with ErrSchemeMismatch, while each accepts its
// own and a tampered Ed25519 signature fails the signature check.
func TestVerifierRefusesOtherProfile(t *testing.T) {
	f := newFixture(t)
	out := cryptoutil.SHA1([]byte("tx-binding"))
	var nonce Nonce
	copy(nonce[:], "fresh-nonce-20-bytes")
	want := Expectations{Nonce: nonce, ExpectedPCR23: expectedPCR23(out)}
	rsaEv := f.runSessionAndQuote(t, out, nonce)

	sch, err := cryptoutil.SchemeByID(cryptoutil.SchemeEd25519)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sch.GenerateKey(sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := f.ca.CertifyAIKScheme("platform-1", f.machine.TPM().EK(), cryptoutil.SchemeEd25519, signer.Public())
	if err != nil {
		t.Fatal(err)
	}
	pcr17 := expectedChainCapped([]cryptoutil.Digest{cryptoutil.SHA1(f.palImage)})
	q, err := tpm.SignQuoteScheme(nil, signer, [20]byte(nonce),
		[]int{tpm.PCRDRTM, tpm.PCRApp}, []cryptoutil.Digest{pcr17, expectedPCR23(out)})
	if err != nil {
		t.Fatal(err)
	}
	edEv := &Evidence{Cert: cert, Quote: q}

	edV := NewVerifier(f.ca.PublicKey())
	edV.SetScheme(sch)
	edV.ApprovePAL("confirm-v1", cryptoutil.SHA1(f.palImage))

	if _, err := edV.Verify(edEv, want); err != nil {
		t.Fatalf("ed25519 verifier refused ed25519 evidence: %v", err)
	}
	if _, err := f.verifier.Verify(rsaEv, want); err != nil {
		t.Fatalf("rsa verifier refused rsa evidence: %v", err)
	}
	if _, err := edV.Verify(rsaEv, want); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("ed25519 verifier on rsa evidence: %v, want ErrSchemeMismatch", err)
	}
	if _, err := f.verifier.Verify(edEv, want); !errors.Is(err, ErrSchemeMismatch) {
		t.Fatalf("rsa verifier on ed25519 evidence: %v, want ErrSchemeMismatch", err)
	}

	tq := *q
	tq.Signature = append([]byte(nil), q.Signature...)
	tq.Signature[0] ^= 1
	if _, err := edV.Verify(&Evidence{Cert: cert, Quote: &tq}, want); !errors.Is(err, cryptoutil.ErrBadSignature) {
		t.Fatalf("tampered ed25519 signature: %v, want ErrBadSignature", err)
	}
}
