package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"unitp/internal/obs"
)

// twinDispatch serves a rig's client from two providers built from one
// seed: inline dispatches every request with no verify-stage result, so
// each proof is checked by the outcome functions' fallback, and staged
// dispatches it with preVerify's result, as Handle does. Both see every
// request, so their state stays in lockstep as long as the two routes
// agree.
type twinDispatch struct {
	t              *testing.T
	inline, staged *Provider
	// preSeen counts, per message type, the requests for which
	// preVerify returned a result.
	preSeen map[string]int
}

func (d *twinDispatch) handle(req []byte) ([]byte, error) {
	_, inner, _ := obs.UnwrapFrame(req)
	msg, err := DecodeMessage(inner)
	if err != nil {
		return nil, err
	}
	respInline, errInline := d.inline.dispatch(msg, nil, nil, nil)
	pre := d.staged.preVerify(msg, nil)
	if pre != nil {
		d.preSeen[fmt.Sprintf("%T", msg)]++
	}
	respStaged, errStaged := d.staged.dispatch(msg, pre, nil, nil)
	if !bytes.Equal(respInline, respStaged) || (errInline == nil) != (errStaged == nil) {
		d.t.Errorf("%T: inline answered %x (%v), pre-verified %x (%v)",
			msg, respInline, errInline, respStaged, errStaged)
	}
	return respInline, errInline
}

// sameState fails the test unless both twins hold the same stats and
// audit log.
func (d *twinDispatch) sameState(t *testing.T) {
	t.Helper()
	if a, b := d.inline.Stats(), d.staged.Stats(); a != b {
		t.Errorf("stats diverged:\n  inline       %+v\n  pre-verified %+v", a, b)
	}
	if a, b := d.inline.AuditLog().Entries(), d.staged.AuditLog().Entries(); !reflect.DeepEqual(a, b) {
		t.Errorf("audit logs diverged: inline %d entries, pre-verified %d", len(a), len(b))
	}
}

// TestInlineVerifyMatchesPreVerified drives every proof kind preVerify
// handles through twin providers, one verifying inline (pre = nil, the
// route a request takes when the verify stage skips it or loses a race
// with the state transition) and one consuming the verify stage, and
// requires the same response bytes, stats and audit entries from both.
func TestInlineVerifyMatchesPreVerified(t *testing.T) {
	r := newRig(t, nil)
	d := &twinDispatch{
		t:       t,
		inline:  r.provider,
		staged:  newRigProvider(t, r.clock, r.ca.PublicKey()),
		preSeen: map[string]int{},
	}
	r.handle = d.handle

	// submit returns a fresh confirmation challenge for a payment.
	submit := func(t *testing.T, id string) *Challenge {
		t.Helper()
		resp, err := r.client.roundTrip(&SubmitTx{Tx: payment(id, "bob", 2_000)})
		if err != nil {
			t.Fatal(err)
		}
		ch, ok := resp.(*Challenge)
		if !ok {
			t.Fatalf("submit %s: got %T, want challenge", id, resp)
		}
		return ch
	}
	cases := []struct {
		name string
		kind any // the proof message whose verify stage must have run
		run  func(t *testing.T)
	}{
		{"confirm-quote-accept", &ConfirmTx{}, func(t *testing.T) {
			r.pressOnce('y')
			if o, err := r.client.SubmitTransaction(payment("iv-accept", "bob", 5_000)); err != nil || !o.Accepted {
				t.Fatalf("accept: %v / %+v", err, o)
			}
		}},
		{"confirm-quote-denied", &ConfirmTx{}, func(t *testing.T) {
			r.pressOnce('n')
			if o, err := r.client.SubmitTransaction(payment("iv-deny", "bob", 5_000)); err != nil || o.Accepted || !o.Authentic {
				t.Fatalf("denial: %v / %+v", err, o)
			}
		}},
		{"confirm-quote-bad-evidence", &ConfirmTx{}, func(t *testing.T) {
			// Undecodable evidence, then a well-formed quote of the OS
			// state with no PAL behind it.
			ch := submit(t, "iv-garbage")
			if _, err := r.client.roundTrip(&ConfirmTx{Nonce: ch.Nonce, Confirmed: true,
				Mode: ModeQuote, Evidence: []byte("not evidence")}); err != nil {
				t.Fatal(err)
			}
			ch = submit(t, "iv-os-quote")
			ev, err := r.client.quoteEvidence(ch.Nonce)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.client.roundTrip(&ConfirmTx{Nonce: ch.Nonce, Confirmed: true,
				Mode: ModeQuote, Evidence: ev}); err != nil {
				t.Fatal(err)
			}
		}},
		{"presence", &PresenceProof{}, func(t *testing.T) {
			r.pressOnce(' ')
			if o, err := r.client.ProveHumanPresence(); err != nil || !o.Accepted {
				t.Fatalf("presence: %v / %+v", err, o)
			}
		}},
		{"provision", &ProvisionComplete{}, func(t *testing.T) {
			if o, err := r.client.ProvisionHMACKey(); err != nil || !o.Accepted {
				t.Fatalf("provision: %v / %+v", err, o)
			}
			if err := r.client.SetMode(ModeHMAC); err != nil {
				t.Fatal(err)
			}
			r.pressOnce('y')
			if o, err := r.client.SubmitTransaction(payment("iv-hmac", "bob", 3_000)); err != nil || !o.Accepted {
				t.Fatalf("HMAC confirm: %v / %+v", err, o)
			}
			if err := r.client.SetMode(ModeQuote); err != nil {
				t.Fatal(err)
			}
		}},
		{"login", &LoginProof{}, func(t *testing.T) {
			r.typePIN("2468")
			if o, err := r.client.Login("alice"); err != nil || !o.Accepted {
				t.Fatalf("login: %v / %+v", err, o)
			}
			r.typePIN("1111")
			if o, err := r.client.Login("alice"); err != nil || o.Accepted {
				t.Fatalf("wrong PIN: %v / %+v", err, o)
			}
		}},
		{"batch", &ConfirmBatch{}, func(t *testing.T) {
			r.pressSequence("yny")
			if o, _, err := r.client.SubmitBatch(batchOf(3)); err != nil || !o.Authentic {
				t.Fatalf("batch: %v / %+v", err, o)
			}
		}},
		{"session", &SessionProve{}, func(t *testing.T) {
			if err := r.client.SetMode(ModeSession); err != nil {
				t.Fatal(err)
			}
			r.pressTimes('y', 2)
			for _, id := range []string{"iv-s1", "iv-s2"} {
				if o, err := r.client.SubmitTransaction(payment(id, "bob", 1_000)); err != nil || !o.Accepted {
					t.Fatalf("session confirm %s: %v / %+v", id, err, o)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d.t = t
			kind := fmt.Sprintf("%T", c.kind)
			before := d.preSeen[kind]
			c.run(t)
			if d.preSeen[kind] == before {
				t.Errorf("no %s reached the verify stage", kind)
			}
			d.sameState(t)
		})
	}
}
