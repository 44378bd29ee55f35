package core

import (
	"crypto/rsa"
	"strings"
	"testing"
	"time"

	"unitp/internal/attest"
	"unitp/internal/cryptoutil"
	"unitp/internal/flicker"
	"unitp/internal/hostos"
	"unitp/internal/netsim"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/tpm"
)

// rig is a complete client+provider deployment for protocol tests.
type rig struct {
	clock    *sim.VirtualClock
	machine  *platform.Machine
	os       *hostos.OS
	manager  *flicker.Manager
	ca       *attest.PrivacyCA
	provider *Provider
	client   *Client
	// handle serves the client's requests; newRig points it at
	// provider.Handle, and a test may swap it before the first request.
	handle netsim.Handler
}

// rigSeed seeds every rig, so providers built by newRigProvider are
// byte-for-byte twins of a rig's own.
const rigSeed = 0xC0DE

// newRig wires a full deployment: machine with ideal TPM, OS, CA
// enrollment, provider approving the protocol PALs, in-memory transport.
func newRig(t testing.TB, prot *platform.Protections) *rig {
	t.Helper()
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(rigSeed)

	machine, err := platform.New(platform.Config{
		Clock:       clock,
		Random:      rng.Fork("machine"),
		Protections: prot,
	})
	if err != nil {
		t.Fatal(err)
	}
	osys := hostos.New(machine)
	manager := flicker.NewManager(machine)

	caKey, err := cryptoutil.PooledKey(3000)
	if err != nil {
		t.Fatal(err)
	}
	ca := attest.NewPrivacyCA("test-ca", caKey, clock, rng.Fork("ca"))
	if err := ca.EnrollEK("client-platform", machine.TPM().EK()); err != nil {
		t.Fatal(err)
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.CertifyAIK("client-platform", machine.TPM().EK(), aikPub)
	if err != nil {
		t.Fatal(err)
	}

	r := &rig{clock: clock, machine: machine, os: osys, manager: manager, ca: ca}
	r.provider = newRigProvider(t, clock, ca.PublicKey())
	r.handle = r.provider.Handle
	pipe := netsim.NewPipe(netsim.Config{
		Clock:  clock,
		Random: rng.Fork("net"),
		Link:   netsim.LinkBroadband(),
	}, func(req []byte) ([]byte, error) { return r.handle(req) })

	r.client, err = NewClient(ClientConfig{
		Manager:   manager,
		OS:        osys,
		Transport: pipe,
		AIK:       aik,
		Cert:      cert,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newRigProvider builds a rig's provider: approving the protocol PALs,
// alice enrolled (PIN 2468) and funded, bob and mallory at zero. Two
// calls with the same clock and CA build identical providers.
func newRigProvider(t testing.TB, clock sim.Clock, caPub *rsa.PublicKey) *Provider {
	t.Helper()
	provKey, err := cryptoutil.PooledKey(3001)
	if err != nil {
		t.Fatal(err)
	}
	provider := NewProvider(ProviderConfig{
		Name:   "test-bank",
		CAPub:  caPub,
		Key:    provKey,
		Clock:  clock,
		Random: sim.NewRand(rigSeed).Fork("provider"),
	})
	provider.Verifier().ApprovePAL(ConfirmPALName, cryptoutil.SHA1(ConfirmPALImage()))
	provider.Verifier().ApprovePAL(PresencePALName, cryptoutil.SHA1(PresencePALImage()))
	provider.Verifier().ApprovePAL(ProvisionPALName,
		cryptoutil.SHA1(ProvisionPALImage(provider.PublicKeyDER())))
	provider.Verifier().ApprovePAL(PINPALName, cryptoutil.SHA1(PINPALImage()))
	provider.Verifier().ApprovePAL(BatchPALName, cryptoutil.SHA1(BatchPALImage()))
	approveSessionPALs(provider)
	if err := provider.EnrollCredential("alice", "2468"); err != nil {
		t.Fatal(err)
	}
	if err := provider.Ledger().CreateAccount("alice", 100_000); err != nil {
		t.Fatal(err)
	}
	if err := provider.Ledger().CreateAccount("bob", 0); err != nil {
		t.Fatal(err)
	}
	if err := provider.Ledger().CreateAccount("mallory", 0); err != nil {
		t.Fatal(err)
	}
	return provider
}

// pressOnce arms the input pump to press one key after a human reaction
// time.
func (r *rig) pressOnce(key rune) {
	done := false
	r.machine.SetInputPump(func() bool {
		if done {
			return false
		}
		done = true
		r.clock.Sleep(900 * time.Millisecond)
		r.machine.Keyboard().Press(key)
		return true
	})
}

// vigilantUser arms the pump with a human who reads the PAL's displayed
// line and approves only if it names the expected payee.
func (r *rig) vigilantUser(expectedPayee string) {
	done := false
	r.machine.SetInputPump(func() bool {
		if done {
			return false
		}
		done = true
		r.clock.Sleep(1200 * time.Millisecond) // reading takes longer
		lines := r.machine.Display().Lines()
		key := 'n'
		if len(lines) > 0 {
			last := lines[len(lines)-1]
			if last.By == platform.OwnerPAL && strings.Contains(last.Text, expectedPayee) {
				key = 'y'
			}
		}
		r.machine.Keyboard().Press(key)
		return true
	})
}

// nobodyHome arms the pump with an empty room.
func (r *rig) nobodyHome() {
	r.machine.SetInputPump(func() bool { return false })
}

func payment(id string, to string, cents int64) *Transaction {
	return &Transaction{
		ID: id, From: "alice", To: to,
		AmountCents: cents, Currency: "EUR", Memo: "test",
	}
}

func TestConfirmedTransactionExecutes(t *testing.T) {
	r := newRig(t, nil)
	r.pressOnce('y')
	outcome, err := r.client.SubmitTransaction(payment("tx1", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || !outcome.Authentic {
		t.Fatalf("outcome = %+v", outcome)
	}
	bal, err := r.provider.Ledger().Balance("bob")
	if err != nil {
		t.Fatal(err)
	}
	if bal != 5_000 {
		t.Fatalf("bob balance = %d", bal)
	}
	st := r.provider.Stats()
	if st.Confirmed != 1 || st.Challenged != 1 || st.RejectedForged != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUserDenialIsAuthenticatedAndBlocksExecution(t *testing.T) {
	r := newRig(t, nil)
	r.pressOnce('n')
	outcome, err := r.client.SubmitTransaction(payment("tx1", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Accepted {
		t.Fatal("denied transaction executed")
	}
	if !outcome.Authentic {
		t.Fatal("denial not authenticated")
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 0 {
		t.Fatalf("bob balance = %d after denial", bal)
	}
	if st := r.provider.Stats(); st.DeniedByUser != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoHumanMeansNoConfirmation(t *testing.T) {
	r := newRig(t, nil)
	r.nobodyHome()
	_, err := r.client.SubmitTransaction(payment("tx1", "bob", 5_000))
	if err == nil {
		t.Fatal("unattended machine confirmed a transaction")
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 0 {
		t.Fatal("money moved without a human")
	}
}

func TestVigilantUserCatchesOutboundTampering(t *testing.T) {
	// Malware rewrites the payee on the way out. The provider echoes
	// *its* copy; the PAL displays it; the vigilant user sees "mallory"
	// instead of "bob" and denies.
	r := newRig(t, nil)
	r.os.AddInterceptor(func(p []byte) []byte {
		msg, err := DecodeMessage(p)
		if err != nil {
			return p
		}
		if sub, ok := msg.(*SubmitTx); ok {
			sub.Tx.To = "mallory"
			out, err := EncodeMessage(sub)
			if err != nil {
				return p
			}
			return out
		}
		return p
	})
	r.vigilantUser("bob")
	outcome, err := r.client.SubmitTransaction(payment("tx1", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Accepted {
		t.Fatal("tampered transaction executed")
	}
	if !outcome.Authentic {
		t.Fatal("denial of tampered transaction not authenticated")
	}
	if bal, _ := r.provider.Ledger().Balance("mallory"); bal != 0 {
		t.Fatalf("mallory received %d", bal)
	}
	if st := r.provider.Stats(); st.DeniedByUser != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChallengeRewriteCannotHideTampering(t *testing.T) {
	// Stronger malware: rewrite the payee outbound AND rewrite the
	// inbound challenge so the PAL displays what the user expects. The
	// user confirms — but the binding covers the *displayed* (forged-
	// back) transaction, which differs from the provider's copy, so
	// verification fails and nothing executes.
	r := newRig(t, nil)
	r.os.AddInterceptor(func(p []byte) []byte {
		msg, err := DecodeMessage(p)
		if err != nil {
			return p
		}
		if sub, ok := msg.(*SubmitTx); ok {
			sub.Tx.To = "mallory"
			if out, err := EncodeMessage(sub); err == nil {
				return out
			}
		}
		return p
	})
	r.os.AddInboundInterceptor(func(p []byte) []byte {
		msg, err := DecodeMessage(p)
		if err != nil {
			return p
		}
		if ch, ok := msg.(*Challenge); ok {
			ch.Tx.To = "bob" // hide the manipulation from the human
			if out, err := EncodeMessage(ch); err == nil {
				return out
			}
		}
		return p
	})
	r.vigilantUser("bob")
	outcome, err := r.client.SubmitTransaction(payment("tx1", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Accepted {
		t.Fatal("hidden tampering executed")
	}
	if bal, _ := r.provider.Ledger().Balance("mallory"); bal != 0 {
		t.Fatalf("mallory received %d", bal)
	}
	if st := r.provider.Stats(); st.RejectedForged != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestForgedConfirmationWithoutPALRejected(t *testing.T) {
	// A transaction generator submits an order and tries to confirm it
	// with a quote taken directly by the OS (no late launch).
	r := newRig(t, nil)
	resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("forge", "mallory", 9_000)})
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := resp.(*Challenge)
	if !ok {
		t.Fatalf("response = %T", resp)
	}
	evidence, err := r.client.quoteEvidence(ch.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = r.client.roundTrip(&ConfirmTx{
		Nonce: ch.Nonce, Confirmed: true, Mode: ModeQuote, Evidence: evidence,
	})
	if err != nil {
		t.Fatal(err)
	}
	outcome := resp.(*Outcome)
	if outcome.Accepted {
		t.Fatal("OS-state quote accepted")
	}
	if st := r.provider.Stats(); st.RejectedForged != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if bal, _ := r.provider.Ledger().Balance("mallory"); bal != 0 {
		t.Fatal("forged transaction moved money")
	}
}

func TestConfirmationReplayRejected(t *testing.T) {
	r := newRig(t, nil)

	// Intercept and store the outbound confirmation for replay.
	var replayed []byte
	r.os.AddInterceptor(func(p []byte) []byte {
		if msg, err := DecodeMessage(p); err == nil {
			if _, ok := msg.(*ConfirmTx); ok {
				replayed = append([]byte{}, p...)
			}
		}
		return p
	})
	r.pressOnce('y')
	outcome, err := r.client.SubmitTransaction(payment("tx1", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted {
		t.Fatalf("setup failed: %+v", outcome)
	}
	if replayed == nil {
		t.Fatal("no confirmation captured")
	}
	// Replay the captured confirmation. Proof handling is idempotent:
	// the duplicate receives the original outcome, and — the security
	// property — the transaction does not execute twice.
	respBytes, err := r.provider.Handle(replayed)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeMessage(respBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*Outcome).Accepted {
		t.Fatalf("idempotent replay lost the original outcome: %+v", resp)
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("replay double-spent: bob = %d", bal)
	}
	// After the idempotency window closes, the replay is simply stale.
	r.clock.Sleep(10 * time.Minute)
	r.provider.GC()
	respBytes, err = r.provider.Handle(replayed)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = DecodeMessage(respBytes)
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*Outcome).Accepted {
		t.Fatal("post-window replay accepted")
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("post-window replay double-spent: bob = %d", bal)
	}
}

func TestStaleNonceRejected(t *testing.T) {
	r := newRig(t, nil)
	var forged attest.Nonce
	forged[3] = 9
	respBytes, err := r.provider.Handle(mustEncode(t, &ConfirmTx{
		Nonce: forged, Confirmed: true, Mode: ModeQuote,
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp := mustDecode(t, respBytes).(*Outcome)
	if resp.Accepted {
		t.Fatal("unissued nonce accepted")
	}
	if st := r.provider.Stats(); st.RejectedStale != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestThresholdAutoAccept(t *testing.T) {
	r := newRig(t, nil)
	r.provider.thresh = 10_000 // direct field access within package
	r.nobodyHome()             // nobody needed below the threshold
	outcome, err := r.client.SubmitTransaction(payment("small", "bob", 500))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || outcome.Authentic {
		t.Fatalf("outcome = %+v", outcome)
	}
	if st := r.provider.Stats(); st.AutoAccepted != 1 || st.Challenged != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// At/above threshold still challenges.
	r.pressOnce('y')
	outcome, err = r.client.SubmitTransaction(payment("big", "bob", 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Authentic {
		t.Fatal("large transaction skipped confirmation")
	}
}

func TestInvalidTransactionRejected(t *testing.T) {
	r := newRig(t, nil)
	r.nobodyHome()
	outcome, err := r.client.SubmitTransaction(&Transaction{
		ID: "bad", From: "alice", To: "alice", AmountCents: 100, Currency: "EUR",
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Accepted {
		t.Fatal("self transfer accepted")
	}
}

func TestPresenceFlowWithHuman(t *testing.T) {
	r := newRig(t, nil)
	r.pressOnce(' ')
	outcome, err := r.client.ProveHumanPresence()
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || outcome.Token == "" {
		t.Fatalf("outcome = %+v", outcome)
	}
	if !r.provider.ValidPresenceToken(outcome.Token) {
		t.Fatal("issued token not recognized")
	}
	if r.provider.ValidPresenceToken("presence-forged") {
		t.Fatal("forged token recognized")
	}
	if st := r.provider.Stats(); st.PresenceGranted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPresenceFlowWithoutHumanFails(t *testing.T) {
	// A bot cannot obtain a presence token: it cannot inject into the
	// exclusive PAL session, and without a keystroke the PAL refuses.
	r := newRig(t, nil)
	r.nobodyHome()
	_, err := r.client.ProveHumanPresence()
	if err == nil {
		t.Fatal("bot obtained a presence token")
	}
	if st := r.provider.Stats(); st.PresenceGranted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPresenceForgedEvidenceRejected(t *testing.T) {
	r := newRig(t, nil)
	resp, err := r.client.roundTrip(&PresenceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ch := resp.(*PresenceChallenge)
	// OS-state quote, no PAL.
	evidence, err := r.client.quoteEvidence(ch.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = r.client.roundTrip(&PresenceProof{Nonce: ch.Nonce, Evidence: evidence})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*Outcome).Accepted {
		t.Fatal("forged presence evidence accepted")
	}
	if st := r.provider.Stats(); st.PresenceRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHMACProvisioningAndConfirmation(t *testing.T) {
	r := newRig(t, nil)
	outcome, err := r.client.ProvisionHMACKey()
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted {
		t.Fatalf("provisioning outcome = %+v", outcome)
	}
	if err := r.client.SetMode(ModeHMAC); err != nil {
		t.Fatal(err)
	}
	if r.client.Mode() != ModeHMAC {
		t.Fatal("mode not switched")
	}
	r.pressOnce('y')
	outcome, err = r.client.SubmitTransaction(payment("tx-hmac", "bob", 7_000))
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || !outcome.Authentic {
		t.Fatalf("HMAC confirmation outcome = %+v", outcome)
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 7_000 {
		t.Fatalf("bob = %d", bal)
	}
	st := r.provider.Stats()
	if st.Provisioned != 1 || st.Confirmed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHMACModeRequiresProvisioning(t *testing.T) {
	r := newRig(t, nil)
	if err := r.client.SetMode(ModeHMAC); err == nil {
		t.Fatal("switched to HMAC without provisioning")
	}
}

func TestHMACForgeryRejected(t *testing.T) {
	r := newRig(t, nil)
	if _, err := r.client.ProvisionHMACKey(); err != nil {
		t.Fatal(err)
	}
	// Malware submits a transaction and forges a MAC without the key
	// (it cannot unseal the real one outside the confirm PAL).
	resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("forge", "mallory", 8_000)})
	if err != nil {
		t.Fatal(err)
	}
	ch := resp.(*Challenge)
	fakeMAC := cryptoutil.HMACSHA256([]byte("guessed key 0123456789abcdef0123"),
		MACMessage(ch.Nonce, ch.Tx.Digest(), true))
	resp, err = r.client.roundTrip(&ConfirmTx{
		Nonce: ch.Nonce, Confirmed: true, Mode: ModeHMAC,
		PlatformID: r.client.cert.PlatformID, MAC: fakeMAC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*Outcome).Accepted {
		t.Fatal("forged MAC accepted")
	}
	if st := r.provider.Stats(); st.RejectedForged != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHMACUnknownPlatformRejected(t *testing.T) {
	r := newRig(t, nil)
	resp, err := r.client.roundTrip(&SubmitTx{Tx: payment("x", "bob", 1_000)})
	if err != nil {
		t.Fatal(err)
	}
	ch := resp.(*Challenge)
	resp, err = r.client.roundTrip(&ConfirmTx{
		Nonce: ch.Nonce, Confirmed: true, Mode: ModeHMAC,
		PlatformID: "never-provisioned", MAC: []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*Outcome).Accepted {
		t.Fatal("unprovisioned platform accepted in HMAC mode")
	}
}

func TestOSCannotUnsealProvisionedKey(t *testing.T) {
	r := newRig(t, nil)
	if _, err := r.client.ProvisionHMACKey(); err != nil {
		t.Fatal(err)
	}
	blob, err := tpm.UnmarshalSealedBlob(r.client.sealedKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.machine.TPM().Unseal(0, blob); err == nil {
		t.Fatal("OS unsealed the provisioned key")
	}
	if _, err := r.machine.TPM().Unseal(2, blob); err == nil {
		t.Fatal("locality 2 outside the PAL unsealed the provisioned key")
	}
}

func mustEncode(t *testing.T, msg any) []byte {
	t.Helper()
	b, err := EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustDecode(t testing.TB, b []byte) any {
	t.Helper()
	msg, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}
