package tpm

import (
	"crypto"
	"crypto/rsa"
	"fmt"
	"io"

	"unitp/internal/cryptoutil"
)

// Quote performs TPM_Quote: it signs, with the AIK named by handle, the
// composite digest of the selected PCRs together with the 20 bytes of
// externalData (the challenger's anti-replay nonce).
//
// Quotes may be requested from any locality — the security of the trusted
// path comes from *what the PCRs contain*, not from who asks for the
// quote, which is exactly why the protocol works with a compromised OS
// issuing the command after the PAL has exited.
func (t *TPM) Quote(loc Locality, handle Handle, externalData []byte, selection []int) (*Quote, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		return nil, ErrNotStarted
	}
	if !validLocality(loc) {
		return nil, ErrBadLocality
	}
	if len(externalData) != 20 {
		return nil, ErrBadNonce
	}
	key, ok := t.aiks[handle]
	if !ok {
		return nil, ErrUnknownHandle
	}
	sel, err := NormalizeSelection(selection)
	if err != nil {
		return nil, err
	}
	t.charge(OpQuote)

	values := make([]cryptoutil.Digest, len(sel))
	for i, idx := range sel {
		values[i] = t.pcrs[idx]
	}
	composite, err := ComputeComposite(sel, values)
	if err != nil {
		return nil, err
	}
	var ext [20]byte
	copy(ext[:], externalData)
	sig, err := t.signSHA1(key, quoteInfoBytes(composite, ext))
	if err != nil {
		return nil, err
	}
	return &Quote{
		CompositeDigest: composite,
		ExternalData:    ext,
		Selection:       sel,
		PCRValues:       values,
		Signature:       sig,
	}, nil
}

// SignQuote builds and signs a quote directly from a key and explicit
// PCR values, without a TPM instance. Load generators and benchmark
// harnesses use it to mint valid evidence for platforms that exist only
// as key material — the output is indistinguishable from TPM.Quote over
// the same state. A nil random is allowed (PKCS#1 v1.5 signing is
// deterministic).
func SignQuote(random io.Reader, key *rsa.PrivateKey, externalData [20]byte, selection []int, values []cryptoutil.Digest) (*Quote, error) {
	sel, err := NormalizeSelection(selection)
	if err != nil {
		return nil, err
	}
	if len(values) != len(sel) {
		return nil, fmt.Errorf("tpm: sign quote: %d values for %d selected PCRs", len(values), len(sel))
	}
	composite, err := ComputeComposite(sel, values)
	if err != nil {
		return nil, err
	}
	digest := cryptoutil.SHA1(quoteInfoBytes(composite, externalData))
	sig, err := rsa.SignPKCS1v15(random, key, crypto.SHA1, digest[:])
	if err != nil {
		return nil, fmt.Errorf("tpm: sign quote: %w", err)
	}
	vals := make([]cryptoutil.Digest, len(values))
	copy(vals, values)
	return &Quote{
		CompositeDigest: composite,
		ExternalData:    externalData,
		Selection:       sel,
		PCRValues:       vals,
		Signature:       sig,
	}, nil
}

// SignQuoteScheme is SignQuote for an arbitrary crypto profile: the
// signer's scheme decides the signature algorithm while the
// TPM_QUOTE_INFO message, composite computation, and wire layout stay
// identical (the signature field is opaque bytes). An RSA scheme signer
// produces byte-identical output to SignQuote over the same key and
// state.
func SignQuoteScheme(random io.Reader, signer cryptoutil.Signer, externalData [20]byte, selection []int, values []cryptoutil.Digest) (*Quote, error) {
	sel, err := NormalizeSelection(selection)
	if err != nil {
		return nil, err
	}
	if len(values) != len(sel) {
		return nil, fmt.Errorf("tpm: sign quote: %d values for %d selected PCRs", len(values), len(sel))
	}
	composite, err := ComputeComposite(sel, values)
	if err != nil {
		return nil, err
	}
	sig, err := signer.Sign(random, quoteInfoBytes(composite, externalData))
	if err != nil {
		return nil, fmt.Errorf("tpm: sign quote: %w", err)
	}
	vals := make([]cryptoutil.Digest, len(values))
	copy(vals, values)
	return &Quote{
		CompositeDigest: composite,
		ExternalData:    externalData,
		Selection:       sel,
		PCRValues:       vals,
		Signature:       sig,
	}, nil
}

// QuoteMessage recomputes the composite from the reported PCR values,
// checks it against the signed composite, and returns the serialized
// TPM_QUOTE_INFO the signature covers. VerifyQuoteScheme uses it to
// split "is the quote internally consistent" from "does the signature
// verify under the profile's scheme".
func QuoteMessage(q *Quote) ([]byte, error) {
	if q == nil {
		return nil, fmt.Errorf("tpm: quote message: nil quote")
	}
	recomputed, err := ComputeComposite(q.Selection, q.PCRValues)
	if err != nil {
		return nil, fmt.Errorf("tpm: quote message: %w", err)
	}
	if recomputed != q.CompositeDigest {
		return nil, ErrQuoteInconsistent
	}
	return quoteInfoBytes(q.CompositeDigest, q.ExternalData), nil
}

// VerifyQuoteScheme checks a quote under an arbitrary crypto profile:
// composite consistency exactly as VerifyQuote, then the signature
// under the scheme-encoded public key.
func VerifyQuoteScheme(scheme cryptoutil.Scheme, pub []byte, q *Quote) error {
	if scheme == nil || q == nil {
		return fmt.Errorf("tpm: verify quote: nil argument")
	}
	msg, err := QuoteMessage(q)
	if err != nil {
		return err
	}
	if err := scheme.Verify(pub, msg, q.Signature); err != nil {
		return fmt.Errorf("tpm: verify quote signature: %w", err)
	}
	return nil
}

// VerifyQuote checks a quote against an AIK public key: the reported PCR
// values must hash to the signed composite, and the signature over
// TPM_QUOTE_INFO must verify. It does not judge whether the PCR values
// themselves are trustworthy — that is attestation policy (package
// attest).
func VerifyQuote(pub *rsa.PublicKey, q *Quote) error {
	if pub == nil || q == nil {
		return fmt.Errorf("tpm: verify quote: nil argument")
	}
	recomputed, err := ComputeComposite(q.Selection, q.PCRValues)
	if err != nil {
		return fmt.Errorf("tpm: verify quote: %w", err)
	}
	if recomputed != q.CompositeDigest {
		return ErrQuoteInconsistent
	}
	digest := cryptoutil.SHA1(quoteInfoBytes(q.CompositeDigest, q.ExternalData))
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA1, digest[:], q.Signature); err != nil {
		return fmt.Errorf("tpm: verify quote signature: %w", err)
	}
	return nil
}
