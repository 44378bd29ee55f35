// Package core implements the paper's contribution: the uni-directional
// trusted path protocol for transaction confirmation. A service provider
// challenges the client with a fresh nonce; the client late-launches a
// confirmation PAL that shows the transaction, captures the human's
// keystroke over exclusively owned input, and binds
// (nonce, transaction, decision) into the application PCR; a TPM quote
// (or, in the provisioned-key optimization, an HMAC under a PAL-sealed
// key) then proves to the provider that a human — not malware — approved
// exactly the transaction the provider holds.
package core

import (
	"errors"
	"fmt"
	"strings"

	"unitp/internal/cryptoutil"
)

// ErrInvalidTransaction is returned for transactions failing validation.
var ErrInvalidTransaction = errors.New("core: invalid transaction")

// Transaction is one payment order. The provider executes exactly what
// it holds; the protocol's job is to get a human to attest to *that*
// value, not to whatever malware displayed.
type Transaction struct {
	// ID is the client-chosen identifier (for idempotence and logs).
	ID string

	// From is the debited account.
	From string

	// To is the credited account.
	To string

	// AmountCents is the amount in minor units; must be positive.
	AmountCents int64

	// Currency is the ISO-ish currency code.
	Currency string

	// Memo is free-form reference text.
	Memo string
}

// Validate checks structural validity.
func (tx *Transaction) Validate() error {
	switch {
	case tx == nil:
		return fmt.Errorf("%w: nil", ErrInvalidTransaction)
	case tx.ID == "":
		return fmt.Errorf("%w: empty ID", ErrInvalidTransaction)
	case tx.From == "" || tx.To == "":
		return fmt.Errorf("%w: missing account", ErrInvalidTransaction)
	case tx.From == tx.To:
		return fmt.Errorf("%w: self transfer", ErrInvalidTransaction)
	case tx.AmountCents <= 0:
		return fmt.Errorf("%w: non-positive amount", ErrInvalidTransaction)
	case tx.Currency == "":
		return fmt.Errorf("%w: missing currency", ErrInvalidTransaction)
	default:
		return nil
	}
}

// Marshal produces the canonical wire encoding. Canonicality matters:
// the digest of these bytes is what the human's confirmation is bound
// to.
func (tx *Transaction) Marshal() []byte {
	b := cryptoutil.NewBuffer(tx.size())
	tx.put(b)
	return b.Bytes()
}

// size is the length of the canonical encoding.
func (tx *Transaction) size() int {
	return 5*4 + len(tx.ID) + len(tx.From) + len(tx.To) + 8 + len(tx.Currency) + len(tx.Memo)
}

// put appends the canonical encoding to an open buffer.
func (tx *Transaction) put(b *cryptoutil.Buffer) {
	b.PutString(tx.ID)
	b.PutString(tx.From)
	b.PutString(tx.To)
	b.PutUint64(uint64(tx.AmountCents))
	b.PutString(tx.Currency)
	b.PutString(tx.Memo)
}

// UnmarshalTransaction decodes a canonical transaction encoding.
func UnmarshalTransaction(data []byte) (*Transaction, error) {
	r := cryptoutil.NewReader(data)
	tx, err := readTransaction(r)
	if err != nil {
		return nil, err
	}
	if err := r.ExpectEOF(); err != nil {
		return nil, fmt.Errorf("core: unmarshal transaction: %w", err)
	}
	return tx, nil
}

// readTransaction decodes a transaction from an open reader (for use
// inside larger messages).
func readTransaction(r *cryptoutil.Reader) (*Transaction, error) {
	var tx Transaction
	tx.ID = r.String()
	tx.From = r.String()
	tx.To = r.String()
	tx.AmountCents = int64(r.Uint64())
	tx.Currency = r.String()
	tx.Memo = r.String()
	if r.Err() != nil {
		return nil, fmt.Errorf("core: unmarshal transaction: %w", r.Err())
	}
	return &tx, nil
}

// Digest returns the canonical transaction digest bound into PCR 23.
func (tx *Transaction) Digest() cryptoutil.Digest {
	return cryptoutil.SHA1(tx.Marshal())
}

// Equal reports field-wise equality.
func (tx *Transaction) Equal(other *Transaction) bool {
	if tx == nil || other == nil {
		return tx == other
	}
	return *tx == *other
}

// Summary renders the one-line human-readable form the confirmation PAL
// displays. The human's decision is only meaningful with respect to this
// rendering, so it must faithfully include every security-relevant field.
func (tx *Transaction) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: pay %s.%02d %s to %s from %s",
		tx.ID, formatMajor(tx.AmountCents), tx.AmountCents%100, tx.Currency, tx.To, tx.From)
	if tx.Memo != "" {
		fmt.Fprintf(&sb, " (%s)", tx.Memo)
	}
	return sb.String()
}

func formatMajor(cents int64) string {
	return fmt.Sprintf("%d", cents/100)
}
