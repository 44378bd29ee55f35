package workload

import (
	"testing"
	"unitp/internal/core"
)

func TestPopulationBaselineFraudSucceeds(t *testing.T) {
	res, err := RunPopulation(PopulationConfig{
		Seed: 1, Clients: 4, InfectedFraction: 0.5, TxPerClient: 2,
		TrustedPath: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 2 {
		t.Fatalf("infected = %d", res.Infected)
	}
	if res.FraudAttempted != 4 {
		t.Fatalf("fraud attempted = %d", res.FraudAttempted)
	}
	if res.FraudRate() != 1.0 {
		t.Fatalf("baseline fraud rate = %v, want 1.0", res.FraudRate())
	}
	if res.LegitRate() != 1.0 {
		t.Fatalf("baseline legit rate = %v", res.LegitRate())
	}
}

func TestPopulationTrustedPathStopsFraud(t *testing.T) {
	res, err := RunPopulation(PopulationConfig{
		Seed: 2, Clients: 4, InfectedFraction: 0.5, TxPerClient: 2,
		TrustedPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FraudAttempted != 4 {
		t.Fatalf("fraud attempted = %d", res.FraudAttempted)
	}
	if res.FraudExecuted != 0 {
		t.Fatalf("trusted path let %d forgeries through", res.FraudExecuted)
	}
	// Legitimate users are unharmed by the scheme.
	if res.LegitRate() != 1.0 {
		t.Fatalf("legit rate under trusted path = %v", res.LegitRate())
	}
	if res.LegitSubmitted != 4 {
		t.Fatalf("legit submitted = %d", res.LegitSubmitted)
	}
}

func TestPopulationNoInfection(t *testing.T) {
	res, err := RunPopulation(PopulationConfig{
		Seed: 3, Clients: 3, InfectedFraction: 0, TxPerClient: 1,
		TrustedPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FraudAttempted != 0 || res.FraudExecuted != 0 {
		t.Fatalf("phantom fraud: %+v", res)
	}
	if res.LegitExecuted != 3 {
		t.Fatalf("legit executed = %d", res.LegitExecuted)
	}
	if res.FraudRate() != 0 || res.LegitRate() != 1 {
		t.Fatalf("rates = %v / %v", res.FraudRate(), res.LegitRate())
	}
}

func TestPopulationValidation(t *testing.T) {
	if _, err := RunPopulation(PopulationConfig{Clients: 0, TxPerClient: 1}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := RunPopulation(PopulationConfig{Clients: 1, TxPerClient: 0}); err == nil {
		t.Fatal("zero transactions accepted")
	}
}

func TestUserTypesPINAtSecurePrompt(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	user := DefaultUser(d.Rng.Fork("user"))
	user.AttachTo(d.Machine)
	outcome, err := d.Client.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || outcome.Token == "" {
		t.Fatalf("login outcome = %+v", outcome)
	}
}

func TestUserWrongPINFailsLogin(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	user := DefaultUser(d.Rng.Fork("user"))
	user.PIN = "0000" // forgot the PIN
	user.AttachTo(d.Machine)
	outcome, err := d.Client.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Accepted {
		t.Fatal("wrong PIN logged in")
	}
}

func TestUserBatchIntentsApproveOnlyIntended(t *testing.T) {
	// The user queues two payments; malware slips a third into the
	// batch. Reviewing each entry on the trusted prompt, the user
	// approves theirs and denies the stranger.
	d, err := NewDeployment(DeploymentConfig{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	intended := []core.Transaction{
		{ID: "b1", From: "alice", To: "bob", AmountCents: 10_000, Currency: "EUR"},
		{ID: "b2", From: "alice", To: "bob", AmountCents: 20_000, Currency: "EUR"},
	}
	injected := core.Transaction{ID: "evil", From: "alice", To: "mallory",
		AmountCents: 66_600, Currency: "EUR"}
	batch := []core.Transaction{intended[0], injected, intended[1]}

	user := DefaultUser(d.Rng.Fork("user"))
	user.IntendBatch(intended)
	user.AttachTo(d.Machine)

	outcome, decisions, err := d.Client.SubmitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Authentic {
		t.Fatalf("outcome = %+v", outcome)
	}
	if !decisions[0] || decisions[1] || !decisions[2] {
		t.Fatalf("decisions = %v", decisions)
	}
	if bal, _ := d.Provider.Ledger().Balance("mallory"); bal != 0 {
		t.Fatalf("mallory got %d", bal)
	}
	if bal, _ := d.Provider.Ledger().Balance("bob"); bal != 30_000 {
		t.Fatalf("bob = %d", bal)
	}
}
