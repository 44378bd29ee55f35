package workload

import (
	"fmt"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/flicker"
	"unitp/internal/hostos"
	"unitp/internal/netsim"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/tpm"
)

// PopulationConfig parameterizes a multi-client fraud simulation.
type PopulationConfig struct {
	// Seed drives the world deterministically.
	Seed uint64

	// Clients is the number of client machines.
	Clients int

	// InfectedFraction is the share of clients carrying a transaction
	// generator.
	InfectedFraction float64

	// TxPerClient is how many legitimate transactions each clean
	// client's user makes (and how many forgeries each infected
	// client's malware attempts).
	TxPerClient int

	// TrustedPath selects whether the provider demands trusted-path
	// confirmation (true) or executes submissions directly (false —
	// the pre-paper baseline world).
	TrustedPath bool
}

// PopulationResult aggregates one world's outcomes.
type PopulationResult struct {
	// Clients and Infected describe the world.
	Clients  int
	Infected int

	// LegitSubmitted / LegitExecuted count genuine user transactions.
	LegitSubmitted int
	LegitExecuted  int

	// FraudAttempted / FraudExecuted count transaction-generator
	// forgeries.
	FraudAttempted int
	FraudExecuted  int
}

// FraudRate returns the fraction of forgeries that executed.
func (r *PopulationResult) FraudRate() float64 {
	if r.FraudAttempted == 0 {
		return 0
	}
	return float64(r.FraudExecuted) / float64(r.FraudAttempted)
}

// LegitRate returns the fraction of genuine transactions that executed.
func (r *PopulationResult) LegitRate() float64 {
	if r.LegitSubmitted == 0 {
		return 0
	}
	return float64(r.LegitExecuted) / float64(r.LegitSubmitted)
}

// RunPopulation simulates a provider serving a population of clients, a
// fraction of which are infected with transaction generators, and
// reports how much fraud executes with and without the trusted path —
// the deployment-scale argument of the paper (experiment F7).
func RunPopulation(cfg PopulationConfig) (*PopulationResult, error) {
	if cfg.Clients <= 0 || cfg.TxPerClient <= 0 {
		return nil, fmt.Errorf("workload: population needs clients and transactions")
	}
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(cfg.Seed ^ 0x90B)
	keys := tpm.PooledKeySource()
	caKey, err := keys.Next()
	if err != nil {
		return nil, err
	}
	ca := attest.NewPrivacyCA("population-ca", caKey, clock, rng.Fork("ca"))

	provKey, err := keys.Next()
	if err != nil {
		return nil, err
	}
	threshold := int64(0)
	if !cfg.TrustedPath {
		threshold = 1 << 40 // provider executes everything on request
	}
	provider := core.NewProvider(core.ProviderConfig{
		Name:                  "population-bank",
		CAPub:                 ca.PublicKey(),
		Key:                   provKey,
		Clock:                 clock,
		Random:                rng.Fork("provider"),
		ConfirmThresholdCents: threshold,
	})
	provider.Verifier().ApprovePAL(core.ConfirmPALName, cryptoutil.SHA1(core.ConfirmPALImage()))

	res := &PopulationResult{
		Clients:  cfg.Clients,
		Infected: int(float64(cfg.Clients) * cfg.InfectedFraction),
	}
	for i := 0; i < cfg.Clients; i++ {
		account := fmt.Sprintf("acct-%03d", i)
		if err := provider.Ledger().CreateAccount(account, 1_000_000_00); err != nil {
			return nil, err
		}
	}
	if err := provider.Ledger().CreateAccount("merchant", 0); err != nil {
		return nil, err
	}
	if err := provider.Ledger().CreateAccount("mallory", 0); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Clients; i++ {
		infected := i < res.Infected
		if err := runPopulationClient(i, infected, cfg, clock, rng, ca, provider, res); err != nil {
			return nil, fmt.Errorf("workload: client %d: %w", i, err)
		}
	}
	return res, nil
}

// runPopulationClient simulates one client's activity.
func runPopulationClient(idx int, infected bool, cfg PopulationConfig, clock sim.Clock,
	rng *sim.Rand, ca *attest.PrivacyCA, provider *core.Provider,
	res *PopulationResult) error {

	clientRng := rng.Fork(fmt.Sprintf("client-%d", idx))
	machine, err := platform.New(platform.Config{
		Clock:  clock,
		Random: clientRng.Fork("machine"),
	})
	if err != nil {
		return err
	}
	osys := hostos.New(machine)
	platformID := fmt.Sprintf("pop-platform-%03d", idx)
	if err := ca.EnrollEK(platformID, machine.TPM().EK()); err != nil {
		return err
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		return err
	}
	cert, err := ca.CertifyAIK(platformID, machine.TPM().EK(), aikPub)
	if err != nil {
		return err
	}
	pipe := netsim.NewPipe(netsim.Config{
		Clock:  clock,
		Random: clientRng.Fork("net"),
		Link:   netsim.LinkBroadband(),
	}, provider.Handle)
	account := fmt.Sprintf("acct-%03d", idx)

	if infected {
		// The transaction generator: submits forgeries autonomously.
		// Under the trusted path it answers challenges with an
		// OS-state quote (the best it can do without a human).
		for k := 0; k < cfg.TxPerClient; k++ {
			res.FraudAttempted++
			forged := &core.Transaction{
				ID:   fmt.Sprintf("fraud-%03d-%d", idx, k),
				From: account, To: "mallory",
				AmountCents: 25_000, Currency: "EUR",
			}
			executed, err := attemptFraud(pipe, machine, aik, cert, forged)
			if err != nil {
				return err
			}
			if executed {
				res.FraudExecuted++
			}
		}
		return nil
	}

	client, err := core.NewClient(core.ClientConfig{
		Manager:   flicker.NewManager(machine),
		OS:        osys,
		Transport: pipe,
		AIK:       aik,
		Cert:      cert,
	})
	if err != nil {
		return err
	}

	// The clean client: a real user making real purchases.
	user := DefaultUser(clientRng.Fork("user"))
	user.AttachTo(machine)
	for k := 0; k < cfg.TxPerClient; k++ {
		res.LegitSubmitted++
		tx := &core.Transaction{
			ID:   fmt.Sprintf("buy-%03d-%d", idx, k),
			From: account, To: "merchant",
			AmountCents: int64(1_000 + clientRng.Intn(40_000)), Currency: "EUR",
		}
		user.Intend(tx)
		outcome, err := client.SubmitTransaction(tx)
		if err != nil {
			return err
		}
		if outcome.Accepted {
			res.LegitExecuted++
		}
	}
	return nil
}

// attemptFraud plays the transaction generator: submit, and if
// challenged, answer with an OS-state quote (no human, no PAL).
func attemptFraud(pipe netsim.Transport, machine *platform.Machine, aik tpm.Handle,
	cert *attest.AIKCert, forged *core.Transaction) (bool, error) {

	payload, err := core.EncodeMessage(&core.SubmitTx{Tx: forged})
	if err != nil {
		return false, err
	}
	respBytes, err := pipe.RoundTrip(payload)
	if err != nil {
		return false, err
	}
	resp, err := core.DecodeMessage(respBytes)
	if err != nil {
		return false, err
	}
	switch m := resp.(type) {
	case *core.Outcome:
		return m.Accepted, nil
	case *core.Challenge:
		quote, err := machine.TPM().Quote(machine.OSLocality(), aik, m.Nonce[:],
			[]int{tpm.PCRDRTM, tpm.PCRApp})
		if err != nil {
			return false, err
		}
		ev := attest.Evidence{Cert: cert, Quote: quote}
		confirmBytes, err := core.EncodeMessage(&core.ConfirmTx{
			Nonce: m.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: ev.Marshal(),
		})
		if err != nil {
			return false, err
		}
		respBytes, err := pipe.RoundTrip(confirmBytes)
		if err != nil {
			return false, err
		}
		resp, err := core.DecodeMessage(respBytes)
		if err != nil {
			return false, err
		}
		outcome, ok := resp.(*core.Outcome)
		if !ok {
			return false, fmt.Errorf("workload: unexpected %T", resp)
		}
		return outcome.Accepted, nil
	default:
		return false, fmt.Errorf("workload: unexpected %T", resp)
	}
}
