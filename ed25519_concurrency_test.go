package unitp_test

import (
	"fmt"
	"sync"
	"testing"

	"unitp/internal/attest"
	"unitp/internal/core"
)

// Several goroutines confirm transfers with fresh Ed25519 quotes at once
// against one provider, each quote verified inline by the scheme. One
// confirmation carries a tampered signature: exactly that one is
// refused, every other transfer is applied exactly once (a replayed
// confirmation included), and the audit chain re-verifies every quote.
func TestConcurrentEd25519QuoteConfirms(t *testing.T) {
	f := newBenchCryptoFixture(t, "ed25519")
	const workers, perWorker = 6, 8
	const tampered = "conc-3-5"

	// confirm submits one transfer, answers its challenge with a fresh
	// quote (its signature flipped when tamper is set), then replays the
	// same answer; both outcomes are returned.
	confirm := func(id string, tamper bool) (first, replay *core.Outcome, err error) {
		call := func(msg any) (any, error) {
			req, err := core.EncodeMessage(msg)
			if err != nil {
				return nil, err
			}
			resp, err := f.provider.Handle(req)
			if err != nil {
				return nil, err
			}
			return core.DecodeMessage(resp)
		}
		tx := &core.Transaction{ID: id, From: "alice", To: "bob", AmountCents: 1, Currency: "EUR"}
		resp, err := call(&core.SubmitTx{Tx: tx})
		if err != nil {
			return nil, nil, err
		}
		ch, ok := resp.(*core.Challenge)
		if !ok {
			return nil, nil, fmt.Errorf("submit %s: got %T, want challenge", id, resp)
		}
		evidence, err := f.client.ConfirmEvidence(ch.Nonce, ch.Tx.Digest(), true)
		if err != nil {
			return nil, nil, err
		}
		if tamper {
			ev, err := attest.UnmarshalEvidence(evidence)
			if err != nil {
				return nil, nil, err
			}
			ev.Quote.Signature[0] ^= 1
			evidence = ev.Marshal()
		}
		answer := &core.ConfirmTx{Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: evidence}
		var outs [2]*core.Outcome
		for i := range outs {
			resp, err := call(answer)
			if err != nil {
				return nil, nil, err
			}
			if outs[i], ok = resp.(*core.Outcome); !ok {
				return nil, nil, fmt.Errorf("confirm %s: got %T, want outcome", id, resp)
			}
		}
		return outs[0], outs[1], nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("conc-%d-%d", w, i)
				first, replay, err := confirm(id, id == tampered)
				switch {
				case err != nil:
					errs <- err
				case first.Accepted != (id != tampered):
					errs <- fmt.Errorf("%s: accepted=%v (%s)", id, first.Accepted, first.Reason)
				case replay.Accepted != first.Accepted:
					errs <- fmt.Errorf("%s: replay accepted=%v, first %v (%s)", id, replay.Accepted, first.Accepted, replay.Reason)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	history := f.provider.Ledger().History()
	applied := map[string]int{}
	for _, tx := range history {
		applied[tx.ID]++
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("conc-%d-%d", w, i)
			want := 1
			if id == tampered {
				want = 0
			}
			if applied[id] != want {
				t.Errorf("%s applied %d times, want %d", id, applied[id], want)
			}
		}
	}
	accepted := workers*perWorker - 1
	if len(history) != accepted {
		t.Errorf("ledger holds %d transfers, want %d", len(history), accepted)
	}
	if bal, err := f.provider.Ledger().Balance("bob"); err != nil || bal != int64(accepted) {
		t.Errorf("bob balance %d (err %v), want %d", bal, err, accepted)
	}
	report, err := core.ReplayAudit(f.provider.AuditLog().Entries(), f.provider.Verifier())
	if err != nil {
		t.Fatalf("audit replay: %v", err)
	}
	if report.Reverified != accepted {
		t.Errorf("audit re-verified %d quote confirms, want %d", report.Reverified, accepted)
	}
}
