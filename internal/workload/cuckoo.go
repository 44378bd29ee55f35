package workload

import (
	"fmt"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/flicker"
	"unitp/internal/platform"
	"unitp/internal/tpm"
)

// CuckooRelay is the relay ("cuckoo") attack: malware on the victim's
// machine forwards the confirmation challenge to a machine the
// *attacker* owns — a perfectly genuine platform, with a genuine TPM,
// running the genuine confirmation PAL, with the attacker's own human
// happily pressing y. The resulting evidence is cryptographically
// valid in every respect; it is just from the wrong computer.
//
// The platform protections cannot stop this (nothing on the attacker's
// machine misbehaves). The defence is provider policy: binding each
// account to its enrolled platform (Provider.BindPlatform), which the
// Bind field toggles.
type CuckooRelay struct {
	// Bind enables the account→platform binding defence.
	Bind bool
}

// Name implements Attack.
func (a CuckooRelay) Name() string { return "cuckoo relay (attacker's own platform)" }

// Execute implements Attack.
func (a CuckooRelay) Execute(cfg DeploymentConfig) (AttackResult, error) {
	d, err := NewDeployment(cfg)
	if err != nil {
		return AttackResult{}, err
	}
	if a.Bind {
		// The victim's account was bound to their platform at setup.
		if err := d.Provider.BindPlatform("alice", d.Cert.PlatformID); err != nil {
			return AttackResult{}, err
		}
	}

	// The attacker's own, fully genuine machine, enrolled with the same
	// privacy CA (the CA certifies *platforms*, not *people*).
	attackerMachine, err := platform.New(platform.Config{
		Clock:  d.Clock,
		Random: d.Rng.Fork("attacker-machine"),
	})
	if err != nil {
		return AttackResult{}, err
	}
	if err := d.CA.EnrollEK("attacker-platform", attackerMachine.TPM().EK()); err != nil {
		return AttackResult{}, err
	}
	attackerAIK, attackerAIKPub, err := attackerMachine.TPM().CreateAIK()
	if err != nil {
		return AttackResult{}, err
	}
	attackerCert, err := d.CA.CertifyAIK("attacker-platform",
		attackerMachine.TPM().EK(), attackerAIKPub)
	if err != nil {
		return AttackResult{}, err
	}
	attackerMgr := flicker.NewManager(attackerMachine)
	if err := attackerMgr.Register(core.NewConfirmPAL()); err != nil {
		return AttackResult{}, err
	}
	// The attacker's human is at the attacker's keyboard.
	pressed := false
	attackerMachine.SetInputPump(func() bool {
		if pressed {
			return false
		}
		pressed = true
		attackerMachine.Keyboard().Press('y')
		return true
	})

	// Malware on the victim's machine submits the forged order...
	resp, err := submitRaw(d, forgedTx())
	if err != nil {
		return AttackResult{}, err
	}
	ch, ok := resp.(*core.Challenge)
	if !ok {
		return AttackResult{}, fmt.Errorf("workload: expected challenge, got %T", resp)
	}
	// ...and relays the challenge to the attacker's machine, where the
	// genuine PAL runs and the attacker's human confirms.
	res, err := attackerMgr.Run(core.ConfirmPALName,
		core.MarshalConfirmInput(ch.Nonce, ch.Tx.Marshal(), core.ModeQuote, nil))
	if err != nil {
		return AttackResult{}, err
	}
	if res.PALErr != nil {
		return AttackResult{}, fmt.Errorf("workload: attacker PAL: %w", res.PALErr)
	}
	quote, err := attackerMachine.TPM().Quote(0, attackerAIK, ch.Nonce[:],
		[]int{tpm.PCRDRTM, tpm.PCRApp})
	if err != nil {
		return AttackResult{}, err
	}
	ev := attest.Evidence{Cert: attackerCert, Quote: quote}
	outcome, err := confirmRaw(d, &core.ConfirmTx{
		Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: ev.Marshal(),
	})
	if err != nil {
		return AttackResult{}, err
	}
	label := "no account-platform binding"
	if a.Bind {
		label = "account-platform binding ON"
	}
	return AttackResult{
		Attack:         a.Name(),
		Protections:    label,
		ForgedAccepted: outcome.Accepted && mallorysGain(d),
		Detail:         outcome.Reason,
	}, nil
}
