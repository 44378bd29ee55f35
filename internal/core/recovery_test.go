package core

import (
	"errors"
	"testing"
	"time"

	"unitp/internal/captcha"
	"unitp/internal/faults"
	"unitp/internal/netsim"
	"unitp/internal/sim"
)

// alwaysApprove arms the pump with a patient human who answers every
// prompt with 'y' — session recovery replays the whole confirmation,
// so one-shot pumps are not enough here.
func (r *rig) alwaysApprove() {
	r.machine.SetInputPump(func() bool {
		r.clock.Sleep(900 * time.Millisecond)
		r.machine.Keyboard().Press('y')
		return true
	})
}

// perfectSolver is a deterministic CAPTCHA solver for tests.
func perfectSolver() captcha.Solver {
	return captcha.Solver{Name: "perfect", Accuracy: 1, SolveTime: time.Second}
}

// corruptTrustedPath installs an OS interceptor that turns every
// outbound trusted-path frame into garbage while letting the fallback
// protocol through — the shape of a client whose trusted path is dead
// but whose network still works.
func (r *rig) corruptTrustedPath() {
	r.os.AddInterceptor(func(p []byte) []byte {
		msg, err := DecodeMessage(p)
		if err != nil {
			return p
		}
		switch msg.(type) {
		case *FallbackRequest, *FallbackAnswer:
			return p
		}
		return []byte{0xFF, 0xEE}
	})
}

func TestSubmitResilientMasksTransientSessionFailure(t *testing.T) {
	r := newRig(t, nil)
	// Single-attempt transport with the very first request frame
	// dropped: session one dies on the submit, session two completes.
	plan := faults.NewPlan(sim.NewRand(5), faults.Rates{}, faults.Rates{}).
		Schedule(faults.Event{At: 0, Dir: netsim.DirRequest, Kind: faults.Drop})
	r.client.transport = netsim.NewPipe(netsim.Config{
		Clock:  r.clock,
		Random: sim.NewRand(6),
		Link:   netsim.LinkBroadband(),
		Retry:  &netsim.RetryPolicy{MaxAttempts: 1, AttemptTimeout: time.Second},
		Faults: plan,
	}, r.provider.Handle)

	r.alwaysApprove()
	res, err := r.client.SubmitResilient(payment("tx-flaky", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Accepted || !res.Outcome.Authentic {
		t.Fatalf("outcome = %+v", res.Outcome)
	}
	if res.Attempts != 2 || res.Downgraded {
		t.Fatalf("result = %+v", res)
	}
	if r.client.FailureStreak() != 0 {
		t.Fatalf("streak = %d after success", r.client.FailureStreak())
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("bob = %d", bal)
	}
}

func TestSubmitResilientDegradesToCaptcha(t *testing.T) {
	r := newRig(t, nil)
	r.client.recovery = RecoveryConfig{Solver: perfectSolver(), Rng: sim.NewRand(21)}
	r.corruptTrustedPath()
	r.nobodyHome() // no PAL ever runs; the human only solves the CAPTCHA

	res, err := r.client.SubmitResilient(payment("tx-degraded", "bob", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Downgraded {
		t.Fatalf("result = %+v", res)
	}
	if !res.Outcome.Accepted || res.Outcome.Authentic {
		t.Fatalf("degraded outcome = %+v (must be accepted but not authentic)", res.Outcome)
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 5_000 {
		t.Fatalf("bob = %d", bal)
	}

	st := r.provider.Stats()
	if st.DowngradesRequested != 1 || st.FallbackPassed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CorruptFrames == 0 {
		t.Fatalf("corrupt frames not counted: %+v", st)
	}

	// The downgrade and the fallback execution are both in the
	// hash-chained audit log, and an independent replay sees them.
	report, err := ReplayAudit(r.provider.AuditLog().Entries(), r.provider.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	if report.Downgrades != 1 || report.FallbackTxs != 1 {
		t.Fatalf("audit report = %+v", report)
	}
	var downgrade *AuditEntry
	for i, e := range r.provider.AuditLog().Entries() {
		if e.Kind == AuditDowngrade {
			downgrade = &r.provider.AuditLog().Entries()[i]
		}
	}
	if downgrade == nil || downgrade.Note == "" {
		t.Fatalf("downgrade entry = %+v", downgrade)
	}
}

func TestSubmitResilientFatalErrorImmediate(t *testing.T) {
	r := newRig(t, nil)
	r.nobodyHome()
	_, err := r.client.SubmitResilient(payment("tx-unattended", "bob", 5_000))
	if !errors.Is(err, ErrPALFailed) {
		t.Fatalf("err = %v", err)
	}
	if r.client.FailureStreak() != 0 {
		t.Fatalf("fatal error counted toward degradation streak: %d", r.client.FailureStreak())
	}
	if bal, _ := r.provider.Ledger().Balance("bob"); bal != 0 {
		t.Fatal("money moved without a human")
	}
}

func TestFailureStreakPersistsAcrossCalls(t *testing.T) {
	r := newRig(t, nil)
	r.client.recovery = RecoveryConfig{
		MaxSessionAttempts: 2,
		DegradeAfter:       5,
		Solver:             perfectSolver(),
		Rng:                sim.NewRand(22),
	}
	r.corruptTrustedPath()
	r.nobodyHome()

	tx := payment("tx-streak", "bob", 5_000)
	for call, wantStreak := range []int{2, 4} {
		if _, err := r.client.SubmitResilient(tx); !errors.Is(err, ErrTrustedPathDown) {
			t.Fatalf("call %d: err = %v", call, err)
		}
		if got := r.client.FailureStreak(); got != wantStreak {
			t.Fatalf("call %d: streak = %d, want %d", call, got, wantStreak)
		}
	}
	// Fifth consecutive failure happens on this call's first attempt:
	// the threshold trips and the transaction rides the CAPTCHA gate.
	res, err := r.client.SubmitResilient(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Downgraded || !res.Outcome.Accepted {
		t.Fatalf("result = %+v outcome = %+v", res, res.Outcome)
	}
	if r.client.FailureStreak() != 0 {
		t.Fatalf("streak = %d after fallback success", r.client.FailureStreak())
	}
}

func TestRetryableSessionErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{netsim.ErrTimeout, true},
		{netsim.ErrReset, true},
		{netsim.ErrDeadline, true},
		{netsim.ErrCorruptFrame, true},
		{ErrBadMessage, true},
		{ErrUnexpectedResponse, true},
		{&netsim.RemoteError{Msg: "boom"}, true},
		{ErrPALFailed, false},
		{ErrNotProvisioned, false},
		{errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := retryableSessionError(c.err); got != c.want {
			t.Fatalf("retryableSessionError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
