package cryptoutil

import (
	"errors"
	"reflect"
	"testing"

	"unitp/internal/sim"
)

// The registry holds exactly the RSA and Ed25519 profiles; each resolves
// by ID and by name to itself, signs and verifies, and the retired wire
// ID 2 ("ed25519-batch") resolves to nothing.
func TestSchemeRegistry(t *testing.T) {
	if got, want := SchemeNames(), []string{"rsa", "ed25519"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SchemeNames() = %v, want %v", got, want)
	}
	for _, id := range []SchemeID{SchemeRSA, SchemeEd25519} {
		s, err := SchemeByID(id)
		if err != nil {
			t.Fatalf("SchemeByID(%d): %v", id, err)
		}
		byName, err := SchemeByName(s.Name())
		if err != nil || byName.ID() != id || s.Name() != id.String() {
			t.Fatalf("scheme %d: name %q resolves to %v (err %v)", id, s.Name(), byName, err)
		}
		signer, err := s.GenerateKey(sim.NewRand(uint64(id) + 1))
		if err != nil {
			t.Fatal(err)
		}
		if signer.Scheme() != id {
			t.Fatalf("scheme %s: signer reports %s", s.Name(), signer.Scheme())
		}
		msg := []byte("quote-info")
		sig, err := signer.Sign(sim.NewRand(9), msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(signer.Public(), msg, sig); err != nil {
			t.Fatalf("scheme %s: genuine signature refused: %v", s.Name(), err)
		}
		sig[0] ^= 1
		if err := s.Verify(signer.Public(), msg, sig); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("scheme %s: tampered signature: %v, want ErrBadSignature", s.Name(), err)
		}
	}
	if _, err := SchemeByID(2); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("SchemeByID(2) = %v, want ErrUnknownScheme", err)
	}
	if _, err := SchemeByName("ed25519-batch"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf(`SchemeByName("ed25519-batch") = %v, want ErrUnknownScheme`, err)
	}
	if got := SchemeID(2).String(); got != "scheme(2)" {
		t.Fatalf("SchemeID(2).String() = %q", got)
	}
}
