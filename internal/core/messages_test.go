package core

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"unitp/internal/attest"
)

func sampleTx() *Transaction {
	return &Transaction{
		ID: "tx-42", From: "alice", To: "bob",
		AmountCents: 123_45, Currency: "EUR", Memo: "rent",
	}
}

func TestMessageRoundTrips(t *testing.T) {
	var nonce attest.Nonce
	copy(nonce[:], "nonce-nonce-nonce-20")
	msgs := []any{
		&SubmitTx{Tx: sampleTx()},
		&Challenge{Nonce: nonce, Tx: sampleTx()},
		&ConfirmTx{
			Nonce: nonce, Confirmed: true, Mode: ModeQuote,
			Evidence: []byte{1, 2, 3},
		},
		&ConfirmTx{
			Nonce: nonce, Confirmed: false, Mode: ModeHMAC,
			PlatformID: "plat-1", MAC: []byte{9, 8, 7},
		},
		&Outcome{Accepted: true, Authentic: true, Reason: "ok", TxID: "tx-42", Token: "tok"},
		&Outcome{Accepted: false, Reason: "unknown or expired challenge", Retryable: true},
		&PresenceRequest{},
		&PresenceChallenge{Nonce: nonce, Prompt: "press any key"},
		&PresenceProof{Nonce: nonce, Evidence: []byte{4, 5}},
		&ProvisionRequest{PlatformID: "plat-1"},
		&ProvisionChallenge{Nonce: nonce, ProviderPubDER: []byte{0x30, 0x82}},
		&ProvisionComplete{Nonce: nonce, PlatformID: "plat-1", EncKey: []byte{1}, Evidence: []byte{2}},
		&FallbackRequest{PlatformID: "plat-1", Reason: "netsim: timeout", Failures: 3, Tx: sampleTx()},
		&FallbackChallenge{Nonce: nonce, Text: "xk4g9"},
		&FallbackAnswer{Nonce: nonce, Response: "xk4g9"},
	}
	for _, msg := range msgs {
		wire, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		got, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", msg, got, msg)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                        // type 0 invalid
		{0xFF},                     // unknown type
		{byte(MsgChallenge), 1, 2}, // truncated
	}
	for i, c := range cases {
		if _, err := DecodeMessage(c); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	wire, err := EncodeMessage(&PresenceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(wire, 0xAA)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := EncodeMessage(struct{}{}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestConfirmModeString(t *testing.T) {
	if ModeQuote.String() != "quote" || ModeHMAC.String() != "hmac" {
		t.Fatal("mode names wrong")
	}
	if ConfirmMode(99).String() != "unknown" {
		t.Fatal("unknown mode name")
	}
}

func TestTransactionValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Transaction)
		ok   bool
	}{
		{"valid", func(*Transaction) {}, true},
		{"empty id", func(tx *Transaction) { tx.ID = "" }, false},
		{"no from", func(tx *Transaction) { tx.From = "" }, false},
		{"no to", func(tx *Transaction) { tx.To = "" }, false},
		{"self", func(tx *Transaction) { tx.To = tx.From }, false},
		{"zero amount", func(tx *Transaction) { tx.AmountCents = 0 }, false},
		{"negative amount", func(tx *Transaction) { tx.AmountCents = -5 }, false},
		{"no currency", func(tx *Transaction) { tx.Currency = "" }, false},
	}
	for _, tc := range cases {
		tx := sampleTx()
		tc.mut(tx)
		err := tx.Validate()
		if tc.ok && err != nil {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrInvalidTransaction) {
			t.Fatalf("%s: error = %v", tc.name, err)
		}
	}
	var nilTx *Transaction
	if err := nilTx.Validate(); !errors.Is(err, ErrInvalidTransaction) {
		t.Fatalf("nil: %v", err)
	}
}

func TestTransactionDigestSensitivity(t *testing.T) {
	base := sampleTx()
	muts := []func(*Transaction){
		func(tx *Transaction) { tx.ID = "tx-43" },
		func(tx *Transaction) { tx.From = "carol" },
		func(tx *Transaction) { tx.To = "mallory" },
		func(tx *Transaction) { tx.AmountCents++ },
		func(tx *Transaction) { tx.Currency = "USD" },
		func(tx *Transaction) { tx.Memo = "RENT" },
	}
	for i, mut := range muts {
		tx := *base
		mut(&tx)
		if tx.Digest() == base.Digest() {
			t.Fatalf("mutation %d did not change digest", i)
		}
	}
}

func TestTransactionDigestNoFieldConfusion(t *testing.T) {
	// Length-prefixed canonical encoding: moving bytes between adjacent
	// fields must change the digest.
	a := &Transaction{ID: "ab", From: "c", To: "x", AmountCents: 1, Currency: "E"}
	b := &Transaction{ID: "a", From: "bc", To: "x", AmountCents: 1, Currency: "E"}
	if a.Digest() == b.Digest() {
		t.Fatal("field boundary confusion in canonical encoding")
	}
}

func TestTransactionMarshalRoundTripProperty(t *testing.T) {
	f := func(id, from, to, currency, memo string, cents int64) bool {
		tx := &Transaction{
			ID: id, From: from, To: to,
			AmountCents: cents, Currency: currency, Memo: memo,
		}
		got, err := UnmarshalTransaction(tx.Marshal())
		if err != nil {
			return false
		}
		return got.Equal(tx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTransactionRejectsJunk(t *testing.T) {
	if _, err := UnmarshalTransaction([]byte{1, 2, 3}); err == nil {
		t.Fatal("junk accepted")
	}
	wire := sampleTx().Marshal()
	if _, err := UnmarshalTransaction(append(wire, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTransactionSummaryContainsFields(t *testing.T) {
	s := sampleTx().Summary()
	for _, want := range []string{"tx-42", "alice", "bob", "123", "45", "EUR", "rent"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
	// Without memo, no parens.
	tx := sampleTx()
	tx.Memo = ""
	if bytes.Contains([]byte(tx.Summary()), []byte("(")) {
		t.Fatalf("memo-less summary has parens: %q", tx.Summary())
	}
}

func TestTransactionEqual(t *testing.T) {
	a, b := sampleTx(), sampleTx()
	if !a.Equal(b) {
		t.Fatal("identical transactions unequal")
	}
	b.AmountCents++
	if a.Equal(b) {
		t.Fatal("different transactions equal")
	}
	var nilTx *Transaction
	if a.Equal(nilTx) || nilTx.Equal(a) {
		t.Fatal("nil comparison wrong")
	}
	if !nilTx.Equal(nil) {
		t.Fatal("nil-nil comparison wrong")
	}
}

func TestBindingDistinctness(t *testing.T) {
	var n1, n2 attest.Nonce
	n2[0] = 1
	d1 := sampleTx().Digest()
	other := sampleTx()
	other.To = "mallory"
	d2 := other.Digest()

	bindings := []([20]byte){
		ConfirmationBinding(n1, d1, true),
		ConfirmationBinding(n1, d1, false),
		ConfirmationBinding(n2, d1, true),
		ConfirmationBinding(n1, d2, true),
		PresenceBinding(n1),
		PresenceBinding(n2),
		ProvisionBinding(n1, d1),
		ProvisionBinding(n1, d2),
	}
	seen := make(map[[20]byte]int)
	for i, b := range bindings {
		if prev, ok := seen[b]; ok {
			t.Fatalf("binding collision between %d and %d", prev, i)
		}
		seen[b] = i
	}
}

func TestExpectedAppPCRMatchesExtendSemantics(t *testing.T) {
	var n attest.Nonce
	binding := PresenceBinding(n)
	want := ExpectedAppPCR(binding)
	// Reset-then-extend from first principles: SHA1(zeros || binding).
	var zeros [20]byte
	got := sha1.Sum(append(zeros[:], binding[:]...))
	if got != [20]byte(want) {
		t.Fatal("ExpectedAppPCR does not match extend semantics")
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the wire codec every
// provider and client decodes untrusted frames with: it must never
// panic, and a message it accepts must re-encode to exactly its input
// (the codec is canonical, so no two frames decode to one message).
func FuzzDecodeMessage(f *testing.F) {
	var nonce attest.Nonce
	copy(nonce[:], "nonce-nonce-nonce-20")
	seeds := []any{
		&SubmitTx{Tx: sampleTx()},
		&Challenge{Nonce: nonce, Tx: sampleTx()},
		&ConfirmTx{Nonce: nonce, Confirmed: true, Mode: ModeQuote, Evidence: []byte{1, 2, 3}},
		&ConfirmTx{Nonce: nonce, Mode: ModeHMAC, PlatformID: "plat-1", MAC: []byte{9, 8, 7}},
		&Outcome{Accepted: true, Authentic: true, Reason: "ok", TxID: "tx-42", Token: "tok"},
		&PresenceRequest{},
		&PresenceChallenge{Nonce: nonce, Prompt: "press any key"},
		&PresenceProof{Nonce: nonce, Evidence: []byte{4, 5}},
		&ProvisionRequest{PlatformID: "plat-1"},
		&ProvisionChallenge{Nonce: nonce, ProviderPubDER: []byte{0x30, 0x82}},
		&ProvisionComplete{Nonce: nonce, PlatformID: "plat-1", EncKey: []byte{1}, Evidence: []byte{2}},
		&LoginRequest{Username: "alice"},
		&LoginChallenge{Nonce: nonce, Username: "alice"},
		&LoginProof{Nonce: nonce, Username: "alice", Evidence: []byte{3}},
		&SubmitBatch{Txs: []Transaction{*sampleTx(), *sampleTx()}},
		&BatchChallenge{Nonce: nonce, Txs: []Transaction{*sampleTx()}},
		&ConfirmBatch{Nonce: nonce, Decisions: []bool{true, false}, Mode: ModeQuote, Evidence: []byte{5}},
		&FallbackRequest{PlatformID: "plat-1", Reason: "netsim: timeout", Failures: 3, Tx: sampleTx()},
		&FallbackChallenge{Nonce: nonce, Text: "xk4g9"},
		&FallbackAnswer{Nonce: nonce, Response: "xk4g9"},
		&SessionOpen{PlatformID: "plat-1", Account: "alice"},
		&SessionChallenge{Nonce: nonce, ProviderPubDER: []byte{0x30}, KexPub: []byte{6}, MaxTx: 64, MaxAgeNano: 1e9},
		&SessionProve{Nonce: nonce, PlatformID: "plat-1", Account: "alice", SessionID: 9, EncKey: []byte{7}, Evidence: []byte{8}},
		&SessionGrant{SessionID: 9, MaxTx: 64, MaxAgeNano: 1e9},
		&ConfirmTxSession{Nonce: nonce, Confirmed: true, SessionID: 9, Counter: 2, MAC: []byte{1, 2}},
	}
	for _, msg := range seeds {
		wire, err := EncodeMessage(msg)
		if err != nil {
			f.Fatalf("%T: encode: %v", msg, err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		again, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("accepted %T does not encode: %v", msg, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %T re-encodes to %x, input %x", msg, again, data)
		}
	})
}
