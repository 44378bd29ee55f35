package core

import (
	"errors"
	"fmt"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
)

// MsgType tags a protocol message on the wire.
type MsgType uint8

// Protocol message types.
const (
	MsgSubmitTx MsgType = iota + 1
	MsgChallenge
	MsgConfirmTx
	MsgOutcome
	MsgPresenceRequest
	MsgPresenceChallenge
	MsgPresenceProof
	MsgProvisionRequest
	MsgProvisionChallenge
	MsgProvisionComplete
	MsgLoginRequest
	MsgLoginChallenge
	MsgLoginProof
	MsgSubmitBatch
	MsgBatchChallenge
	MsgConfirmBatch
	MsgFallbackRequest
	MsgFallbackChallenge
	MsgFallbackAnswer
	MsgSessionOpen
	MsgSessionChallenge
	MsgSessionProve
	MsgSessionGrant
	MsgConfirmTxSession
)

// ConfirmMode selects how a confirmation is authenticated.
type ConfirmMode uint8

// Confirmation modes.
const (
	// ModeQuote authenticates with a full TPM quote per transaction
	// (the baseline protocol).
	ModeQuote ConfirmMode = iota + 1

	// ModeHMAC authenticates with an HMAC under a provisioned,
	// PAL-sealed symmetric key (the paper-style optimization that
	// replaces the per-transaction RSA quote with a symmetric
	// operation).
	ModeHMAC

	// ModeSession authenticates with an HMAC under an attested
	// per-session key plus a monotonic counter: one full quote
	// verification opens the session, and confirmations inside it pay
	// only symmetric crypto until policy forces a re-quote.
	ModeSession
)

// String names the mode for tables.
func (m ConfirmMode) String() string {
	switch m {
	case ModeQuote:
		return "quote"
	case ModeHMAC:
		return "hmac"
	case ModeSession:
		return "session"
	default:
		return "unknown"
	}
}

// ErrBadMessage is returned for undecodable or unexpected wire messages.
var ErrBadMessage = errors.New("core: malformed protocol message")

// SubmitTx asks the provider to execute a transaction.
type SubmitTx struct {
	// Tx is the order as the client (or the malware rewriting its
	// traffic) sends it.
	Tx *Transaction
}

// Challenge demands human confirmation of the transaction *as the
// provider received it* before execution.
type Challenge struct {
	// Nonce is the single-use freshness value the confirmation must
	// embed.
	Nonce attest.Nonce

	// Tx echoes the provider's copy of the transaction — the value the
	// human will actually attest to.
	Tx *Transaction
}

// ConfirmTx carries the client's confirmation result and its proof.
type ConfirmTx struct {
	// Nonce identifies the challenge being answered.
	Nonce attest.Nonce

	// Confirmed is the human's claimed decision (authenticated by the
	// proof).
	Confirmed bool

	// Mode selects the proof format.
	Mode ConfirmMode

	// Evidence is a marshalled attest.Evidence (ModeQuote).
	Evidence []byte

	// PlatformID identifies the provisioned key (ModeHMAC).
	PlatformID string

	// MAC is the HMAC over the confirmation binding (ModeHMAC).
	MAC []byte
}

// Outcome is the provider's final answer for a submission, confirmation,
// presence proof, or provisioning exchange.
type Outcome struct {
	// Accepted reports whether the provider executed / granted the
	// request.
	Accepted bool

	// Authentic reports whether the decision was backed by verified
	// evidence (a user's authenticated denial is Authentic but not
	// Accepted).
	Authentic bool

	// Reason explains rejections (and some acceptances).
	Reason string

	// TxID echoes the transaction this outcome concerns, when any.
	TxID string

	// Token carries a human-presence token when one was granted.
	Token string

	// Retryable marks a rejection as transient (stale or expired
	// challenge): a fresh session may well succeed, so the client's
	// recovery layer should retry rather than give up or degrade.
	Retryable bool
}

// put appends the outcome's wire form, message tag included, to an
// open buffer.
func (o *Outcome) put(b *cryptoutil.Buffer) {
	b.PutUint8(uint8(MsgOutcome))
	b.PutBool(o.Accepted)
	b.PutBool(o.Authentic)
	b.PutString(o.Reason)
	b.PutString(o.TxID)
	b.PutString(o.Token)
	b.PutBool(o.Retryable)
}

// PresenceRequest asks for a human-presence challenge (the CAPTCHA
// replacement flow).
type PresenceRequest struct{}

// PresenceChallenge is the provider's presence challenge.
type PresenceChallenge struct {
	// Nonce is the single-use challenge value.
	Nonce attest.Nonce

	// Prompt is the text the PAL shows the human.
	Prompt string
}

// PresenceProof carries the attestation that a human pressed a key in a
// genuine PAL session bound to the challenge.
type PresenceProof struct {
	// Nonce identifies the challenge.
	Nonce attest.Nonce

	// Evidence is a marshalled attest.Evidence.
	Evidence []byte
}

// ProvisionRequest starts HMAC-key provisioning for a platform.
type ProvisionRequest struct {
	// PlatformID is the client's certified platform pseudonym.
	PlatformID string
}

// ProvisionChallenge supplies the provisioning nonce and the provider's
// public key for key transport.
type ProvisionChallenge struct {
	// Nonce is the single-use challenge value.
	Nonce attest.Nonce

	// ProviderPubDER is the provider's RSA public key (PKCS#1 DER).
	ProviderPubDER []byte
}

// ProvisionComplete returns the encrypted fresh key with its attestation.
type ProvisionComplete struct {
	// Nonce identifies the provisioning challenge.
	Nonce attest.Nonce

	// PlatformID is the platform the key belongs to.
	PlatformID string

	// EncKey is the fresh HMAC key, RSA-OAEP-encrypted to the
	// provider.
	EncKey []byte

	// Evidence is a marshalled attest.Evidence binding EncKey to a
	// genuine provisioning-PAL session.
	Evidence []byte
}

// LoginRequest starts a PIN login for a username.
type LoginRequest struct {
	// Username is the account to log into.
	Username string
}

// LoginChallenge demands a trusted-path PIN entry.
type LoginChallenge struct {
	// Nonce is the single-use challenge value.
	Nonce attest.Nonce

	// Username echoes the account the PIN entry is for (displayed on
	// the trusted prompt).
	Username string
}

// LoginProof carries the attestation that the PIN was entered on
// exclusively owned input and matches (by binding) the provider's
// credential record.
type LoginProof struct {
	// Nonce identifies the challenge.
	Nonce attest.Nonce

	// Username is the account being proven.
	Username string

	// Evidence is a marshalled attest.Evidence.
	Evidence []byte
}

// SubmitBatch asks the provider to execute several transactions with
// one confirmation session (amortizing the late-launch and quote cost).
type SubmitBatch struct {
	// Txs are the orders, in the order the human will review them.
	Txs []Transaction
}

// BatchChallenge demands per-transaction confirmation of the batch as
// the provider received it.
type BatchChallenge struct {
	// Nonce is the single-use challenge value.
	Nonce attest.Nonce

	// Txs echoes the provider's copy of the batch.
	Txs []Transaction
}

// ConfirmBatch carries the human's per-transaction decisions and their
// proof.
type ConfirmBatch struct {
	// Nonce identifies the challenge.
	Nonce attest.Nonce

	// Decisions holds the human's y/n per transaction, in batch order.
	Decisions []bool

	// Mode selects the proof format.
	Mode ConfirmMode

	// Evidence is a marshalled attest.Evidence (ModeQuote).
	Evidence []byte

	// PlatformID identifies the provisioned key (ModeHMAC).
	PlatformID string

	// MAC is the HMAC over the batch binding (ModeHMAC).
	MAC []byte
}

// FallbackRequest reports that the client's trusted path failed
// repeatedly and asks for the legacy CAPTCHA gate instead — the paper's
// own baseline, kept as the graceful-degradation path.
type FallbackRequest struct {
	// PlatformID identifies the degrading client (for the audit trail).
	PlatformID string

	// Reason describes the last trusted-path failure.
	Reason string

	// Failures is the consecutive-failure count that triggered the
	// downgrade.
	Failures uint32

	// Tx is the order to execute if the CAPTCHA passes; the challenge
	// is bound to it, as a confirmation challenge is.
	Tx *Transaction
}

// FallbackChallenge is a CAPTCHA issued on the degraded path.
type FallbackChallenge struct {
	// Nonce is the single-use challenge value.
	Nonce attest.Nonce

	// Text is the transcription the human must produce.
	Text string
}

// FallbackAnswer carries the transcription for one CAPTCHA; a correct
// one executes the challenge's order under the weaker, CAPTCHA-gated
// regime.
type FallbackAnswer struct {
	// Nonce identifies the challenge being answered.
	Nonce attest.Nonce

	// Response is the human's transcription.
	Response string
}

// SessionOpen asks for an attested-session challenge: one full quote
// verification whose payoff is a sealed session key that authenticates
// subsequent confirmations symmetrically.
type SessionOpen struct {
	// PlatformID is the client's certified platform pseudonym.
	PlatformID string

	// Account is the account the session will confirm transactions
	// for (sessions are per-account; the quoted binding pins it).
	Account string
}

// SessionChallenge supplies the session-open nonce, the provider's
// keys for session-key agreement, and the session policy the provider
// will enforce.
type SessionChallenge struct {
	// Nonce is the single-use challenge value.
	Nonce attest.Nonce

	// ProviderPubDER is the provider's RSA public key (PKCS#1 DER) —
	// the identity the session-open PAL pins (a substituted key changes
	// the measured PAL image, which the provider will not approve).
	ProviderPubDER []byte

	// KexPub is the provider's X25519 key-agreement public key (32
	// bytes). The session key is derived from an ECDH exchange against
	// it rather than sealed under the RSA key: one curve multiplication
	// instead of an RSA private decrypt keeps the session-open cost off
	// the provider's critical path (see DESIGN.md §15).
	KexPub []byte

	// Scheme is the provider's crypto profile; clients on a different
	// profile learn the mismatch here instead of at verify time.
	Scheme cryptoutil.SchemeID

	// MaxTx is how many session-mode confirmations the session may
	// authenticate before a full re-quote is forced (the re-quote
	// interval N).
	MaxTx uint32

	// MaxAgeNano is the session lifetime in nanoseconds (the re-quote
	// interval T).
	MaxAgeNano uint64
}

// SessionProve answers a session challenge with a full attestation: the
// quote binds the nonce, the account, the client-chosen session ID, and
// the digest of the encrypted session key into PCR 23.
type SessionProve struct {
	// Nonce identifies the challenge.
	Nonce attest.Nonce

	// PlatformID is the platform opening the session.
	PlatformID string

	// Account is the account the session is for.
	Account string

	// SessionID is the client-chosen session identifier (collisions
	// are refused; letting the client pick means evidence can be
	// minted before first contact).
	SessionID uint64

	// EncKey is the client's ephemeral X25519 public share (32 bytes);
	// both sides derive the session key from the exchange, and the
	// quoted binding pins this exact share.
	EncKey []byte

	// Evidence is a marshalled attest.Evidence over the session
	// binding.
	Evidence []byte
}

// SessionGrant acknowledges an established attested session and echoes
// the policy under which it will be honored.
type SessionGrant struct {
	// SessionID is the granted session.
	SessionID uint64

	// MaxTx echoes the enforced re-quote transaction budget.
	MaxTx uint32

	// MaxAgeNano echoes the enforced session lifetime.
	MaxAgeNano uint64
}

// ConfirmTxSession confirms a challenged transaction under an attested
// session: an HMAC over the confirmation binding plus a strictly
// increasing session counter replaces the per-transaction quote.
type ConfirmTxSession struct {
	// Nonce identifies the challenge being answered.
	Nonce attest.Nonce

	// Confirmed is the human's claimed decision (authenticated by the
	// MAC).
	Confirmed bool

	// SessionID names the attested session.
	SessionID uint64

	// Counter is the session's monotonic confirmation counter; the
	// provider accepts only strictly increasing values.
	Counter uint64

	// MAC is the HMAC over the session confirmation binding.
	MAC []byte
}

// putTxSlice appends a length-prefixed transaction sequence.
func putTxSlice(b *cryptoutil.Buffer, txs []Transaction) {
	b.PutUint32(uint32(len(txs)))
	for i := range txs {
		b.PutBytes(txs[i].Marshal())
	}
}

// readTxSlice decodes a length-prefixed transaction sequence.
func readTxSlice(r *cryptoutil.Reader) ([]Transaction, error) {
	n := r.Uint32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxBatchSize {
		return nil, fmt.Errorf("%w: batch of %d", ErrBadMessage, n)
	}
	if n == 0 {
		return nil, nil
	}
	txs := make([]Transaction, 0, n)
	for i := uint32(0); i < n; i++ {
		tx, err := UnmarshalTransaction(r.Bytes())
		if err != nil {
			return nil, err
		}
		txs = append(txs, *tx)
	}
	return txs, nil
}

// putBoolSlice appends a length-prefixed bool sequence.
func putBoolSlice(b *cryptoutil.Buffer, bs []bool) {
	b.PutUint32(uint32(len(bs)))
	for _, v := range bs {
		b.PutBool(v)
	}
}

// readBoolSlice decodes a length-prefixed bool sequence.
func readBoolSlice(r *cryptoutil.Reader) ([]bool, error) {
	n := r.Uint32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > maxBatchSize {
		return nil, fmt.Errorf("%w: decision list of %d", ErrBadMessage, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]bool, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, r.Bool())
	}
	return out, nil
}

// MaxBatchSize bounds one confirmation batch: the human must review each
// entry, so batches are small by design.
const maxBatchSize = 64

// MaxBatchSize is the exported bound on one confirmation batch.
const MaxBatchSize = maxBatchSize

// EncodeMessage renders any protocol message to wire bytes.
func EncodeMessage(msg any) ([]byte, error) {
	b := cryptoutil.NewBuffer(128)
	switch m := msg.(type) {
	case *SubmitTx:
		b.PutUint8(uint8(MsgSubmitTx))
		m.Tx.put(b)
	case *Challenge:
		b.PutUint8(uint8(MsgChallenge))
		b.PutRaw(m.Nonce[:])
		m.Tx.put(b)
	case *ConfirmTx:
		b.PutUint8(uint8(MsgConfirmTx))
		b.PutRaw(m.Nonce[:])
		b.PutBool(m.Confirmed)
		b.PutUint8(uint8(m.Mode))
		b.PutBytes(m.Evidence)
		b.PutString(m.PlatformID)
		b.PutBytes(m.MAC)
	case *Outcome:
		m.put(b)
	case *PresenceRequest:
		b.PutUint8(uint8(MsgPresenceRequest))
	case *PresenceChallenge:
		b.PutUint8(uint8(MsgPresenceChallenge))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.Prompt)
	case *PresenceProof:
		b.PutUint8(uint8(MsgPresenceProof))
		b.PutRaw(m.Nonce[:])
		b.PutBytes(m.Evidence)
	case *ProvisionRequest:
		b.PutUint8(uint8(MsgProvisionRequest))
		b.PutString(m.PlatformID)
	case *ProvisionChallenge:
		b.PutUint8(uint8(MsgProvisionChallenge))
		b.PutRaw(m.Nonce[:])
		b.PutBytes(m.ProviderPubDER)
	case *ProvisionComplete:
		b.PutUint8(uint8(MsgProvisionComplete))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.PlatformID)
		b.PutBytes(m.EncKey)
		b.PutBytes(m.Evidence)
	case *LoginRequest:
		b.PutUint8(uint8(MsgLoginRequest))
		b.PutString(m.Username)
	case *LoginChallenge:
		b.PutUint8(uint8(MsgLoginChallenge))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.Username)
	case *LoginProof:
		b.PutUint8(uint8(MsgLoginProof))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.Username)
		b.PutBytes(m.Evidence)
	case *SubmitBatch:
		b.PutUint8(uint8(MsgSubmitBatch))
		putTxSlice(b, m.Txs)
	case *BatchChallenge:
		b.PutUint8(uint8(MsgBatchChallenge))
		b.PutRaw(m.Nonce[:])
		putTxSlice(b, m.Txs)
	case *ConfirmBatch:
		b.PutUint8(uint8(MsgConfirmBatch))
		b.PutRaw(m.Nonce[:])
		putBoolSlice(b, m.Decisions)
		b.PutUint8(uint8(m.Mode))
		b.PutBytes(m.Evidence)
		b.PutString(m.PlatformID)
		b.PutBytes(m.MAC)
	case *FallbackRequest:
		b.PutUint8(uint8(MsgFallbackRequest))
		b.PutString(m.PlatformID)
		b.PutString(m.Reason)
		b.PutUint32(m.Failures)
		m.Tx.put(b)
	case *FallbackChallenge:
		b.PutUint8(uint8(MsgFallbackChallenge))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.Text)
	case *FallbackAnswer:
		b.PutUint8(uint8(MsgFallbackAnswer))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.Response)
	case *SessionOpen:
		b.PutUint8(uint8(MsgSessionOpen))
		b.PutString(m.PlatformID)
		b.PutString(m.Account)
	case *SessionChallenge:
		b.PutUint8(uint8(MsgSessionChallenge))
		b.PutRaw(m.Nonce[:])
		b.PutBytes(m.ProviderPubDER)
		b.PutBytes(m.KexPub)
		b.PutUint8(uint8(m.Scheme))
		b.PutUint32(m.MaxTx)
		b.PutUint64(m.MaxAgeNano)
	case *SessionProve:
		b.PutUint8(uint8(MsgSessionProve))
		b.PutRaw(m.Nonce[:])
		b.PutString(m.PlatformID)
		b.PutString(m.Account)
		b.PutUint64(m.SessionID)
		b.PutBytes(m.EncKey)
		b.PutBytes(m.Evidence)
	case *SessionGrant:
		b.PutUint8(uint8(MsgSessionGrant))
		b.PutUint64(m.SessionID)
		b.PutUint32(m.MaxTx)
		b.PutUint64(m.MaxAgeNano)
	case *ConfirmTxSession:
		b.PutUint8(uint8(MsgConfirmTxSession))
		b.PutRaw(m.Nonce[:])
		b.PutBool(m.Confirmed)
		b.PutUint64(m.SessionID)
		b.PutUint64(m.Counter)
		b.PutBytes(m.MAC)
	default:
		return nil, fmt.Errorf("%w: unknown message type %T", ErrBadMessage, msg)
	}
	return b.Bytes(), nil
}

// DecodeMessage parses wire bytes into one of the message structs.
func DecodeMessage(data []byte) (any, error) {
	r := cryptoutil.NewReader(data)
	kind := MsgType(r.Uint8())
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: empty", ErrBadMessage)
	}
	var (
		msg any
		err error
	)
	switch kind {
	case MsgSubmitTx:
		var tx *Transaction
		tx, err = readTransaction(r)
		msg = &SubmitTx{Tx: tx}
	case MsgChallenge:
		m := &Challenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Tx, err = readTransaction(r)
		msg = m
	case MsgConfirmTx:
		m := &ConfirmTx{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Confirmed = r.Bool()
		m.Mode = ConfirmMode(r.Uint8())
		m.Evidence = r.Bytes()
		m.PlatformID = r.String()
		m.MAC = r.Bytes()
		msg = m
	case MsgOutcome:
		m := &Outcome{}
		m.Accepted = r.Bool()
		m.Authentic = r.Bool()
		m.Reason = r.String()
		m.TxID = r.String()
		m.Token = r.String()
		m.Retryable = r.Bool()
		msg = m
	case MsgPresenceRequest:
		msg = &PresenceRequest{}
	case MsgPresenceChallenge:
		m := &PresenceChallenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Prompt = r.String()
		msg = m
	case MsgPresenceProof:
		m := &PresenceProof{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Evidence = r.Bytes()
		msg = m
	case MsgProvisionRequest:
		m := &ProvisionRequest{}
		m.PlatformID = r.String()
		msg = m
	case MsgProvisionChallenge:
		m := &ProvisionChallenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.ProviderPubDER = r.Bytes()
		msg = m
	case MsgProvisionComplete:
		m := &ProvisionComplete{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.PlatformID = r.String()
		m.EncKey = r.Bytes()
		m.Evidence = r.Bytes()
		msg = m
	case MsgLoginRequest:
		m := &LoginRequest{}
		m.Username = r.String()
		msg = m
	case MsgLoginChallenge:
		m := &LoginChallenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Username = r.String()
		msg = m
	case MsgLoginProof:
		m := &LoginProof{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Username = r.String()
		m.Evidence = r.Bytes()
		msg = m
	case MsgSubmitBatch:
		m := &SubmitBatch{}
		m.Txs, err = readTxSlice(r)
		msg = m
	case MsgBatchChallenge:
		m := &BatchChallenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Txs, err = readTxSlice(r)
		msg = m
	case MsgConfirmBatch:
		m := &ConfirmBatch{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Decisions, err = readBoolSlice(r)
		m.Mode = ConfirmMode(r.Uint8())
		m.Evidence = r.Bytes()
		m.PlatformID = r.String()
		m.MAC = r.Bytes()
		msg = m
	case MsgFallbackRequest:
		m := &FallbackRequest{}
		m.PlatformID = r.String()
		m.Reason = r.String()
		m.Failures = r.Uint32()
		m.Tx, err = readTransaction(r)
		msg = m
	case MsgFallbackChallenge:
		m := &FallbackChallenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Text = r.String()
		msg = m
	case MsgFallbackAnswer:
		m := &FallbackAnswer{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Response = r.String()
		msg = m
	case MsgSessionOpen:
		m := &SessionOpen{}
		m.PlatformID = r.String()
		m.Account = r.String()
		msg = m
	case MsgSessionChallenge:
		m := &SessionChallenge{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.ProviderPubDER = r.Bytes()
		m.KexPub = r.Bytes()
		m.Scheme = cryptoutil.SchemeID(r.Uint8())
		m.MaxTx = r.Uint32()
		m.MaxAgeNano = r.Uint64()
		msg = m
	case MsgSessionProve:
		m := &SessionProve{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.PlatformID = r.String()
		m.Account = r.String()
		m.SessionID = r.Uint64()
		m.EncKey = r.Bytes()
		m.Evidence = r.Bytes()
		msg = m
	case MsgSessionGrant:
		m := &SessionGrant{}
		m.SessionID = r.Uint64()
		m.MaxTx = r.Uint32()
		m.MaxAgeNano = r.Uint64()
		msg = m
	case MsgConfirmTxSession:
		m := &ConfirmTxSession{}
		copy(m.Nonce[:], r.Raw(attest.NonceSize))
		m.Confirmed = r.Bool()
		m.SessionID = r.Uint64()
		m.Counter = r.Uint64()
		m.MAC = r.Bytes()
		msg = m
	default:
		return nil, fmt.Errorf("%w: unknown type tag %d", ErrBadMessage, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if eofErr := r.ExpectEOF(); eofErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, eofErr)
	}
	return msg, nil
}
