// Package workload provides the experiment substrate above the protocol:
// complete client+provider deployments, human user models, transaction
// stream generators, and the attack strategies of the security
// evaluation (experiment F3).
package workload

import (
	"errors"
	"fmt"
	"time"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/faults"
	"unitp/internal/flicker"
	"unitp/internal/hostos"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/tpm"
)

// DeploymentConfig parameterizes a full deployment.
type DeploymentConfig struct {
	// Seed drives all randomness in the deployment deterministically.
	Seed uint64

	// TPMProfile selects the client TPM vendor (default Ideal).
	TPMProfile tpm.Profile

	// Link selects the client↔provider network path (default
	// broadband).
	Link netsim.Link

	// Protections selects the client platform's security properties
	// (nil = all on).
	Protections *platform.Protections

	// ConfirmThresholdCents configures the provider's confirmation
	// policy (0 = confirm everything).
	ConfirmThresholdCents int64

	// NonceTTL bounds challenge freshness (default 5 min).
	NonceTTL time.Duration

	// Accounts seeds the provider ledger; nil gets DefaultAccounts.
	Accounts map[string]int64

	// Credentials seeds username/PIN pairs for the login flow; nil
	// enrolls alice with DefaultPIN.
	Credentials map[string]string

	// SINITImage switches the client platform to Intel TXT semantics
	// (SINIT measured before the PAL); the provider's approvals follow
	// automatically.
	SINITImage []byte

	// Faults plugs a fault injector (e.g. *faults.Plan) into the
	// network pipe. nil means a clean link beyond the Link's own loss
	// model.
	Faults netsim.Injector

	// Retry replaces the pipe's legacy fixed-timeout loop with a full
	// backoff policy. nil keeps legacy transport behavior.
	Retry *netsim.RetryPolicy

	// Recovery tunes the client's session retries and CAPTCHA
	// degradation (zero value = defaults).
	Recovery core.RecoveryConfig

	// Backend attaches a crash-safe durability store (WAL + snapshots)
	// to the provider; RestartProvider can then rebuild the provider
	// from it after a crash. nil keeps the provider memory-only.
	Backend store.Backend

	// SnapshotEvery rotates the provider's snapshot after this many WAL
	// group commits (0 = only at attach and explicit SnapshotNow).
	// Ignored without Backend.
	SnapshotEvery int

	// SessionMaxTx / SessionMaxAge tune the provider's attested-session
	// re-quote policy (zero values = provider defaults).
	SessionMaxTx  uint32
	SessionMaxAge time.Duration

	// Metrics attaches a live metrics registry to every subsystem
	// (client transport, network pipe, provider, store, fault plan if it
	// supports it). nil runs unmetered; instrumented code paths cost
	// nothing beyond a nil check.
	Metrics *obs.Registry

	// Tracer records span-level session traces across client, network,
	// and provider. The deployment seeds its ID base from a dedicated
	// random fork, so traces are deterministic per Seed. nil disables
	// tracing.
	Tracer *obs.Tracer
}

// DefaultPIN is the PIN enrolled for alice in default deployments.
const DefaultPIN = "2468"

// DefaultAccounts returns the ledger a deployment opens with when its
// config names none: alice funded, bob and mallory empty.
func DefaultAccounts() map[string]int64 {
	return map[string]int64{"alice": 1_000_000, "bob": 0, "mallory": 0}
}

// NodeAccounts returns the ledger a tpserver node opens with: the
// default accounts, plus, for n > 0, n workload accounts (acct-00000..)
// holding 1<<40 cents each and their empty drain sink.
func NodeAccounts(n int) map[string]int64 {
	accounts := DefaultAccounts()
	if n <= 0 {
		return accounts
	}
	accounts["sink"] = 0
	for i := 0; i < n; i++ {
		accounts[fmt.Sprintf("acct-%05d", i)] = 1 << 40
	}
	return accounts
}

// Deployment is one complete simulated system: a client machine with OS
// and PAL manager, the privacy CA, the service provider, and the network
// between them — everything an experiment or example needs.
type Deployment struct {
	// Clock is the shared virtual clock.
	Clock *sim.VirtualClock

	// Rng is the deployment's deterministic randomness root.
	Rng *sim.Rand

	// Machine is the client platform.
	Machine *platform.Machine

	// OS is the client's (infectable) operating system.
	OS *hostos.OS

	// Manager runs PAL sessions on the client.
	Manager *flicker.Manager

	// CA is the privacy CA both sides trust.
	CA *attest.PrivacyCA

	// Provider is the service provider engine.
	Provider *core.Provider

	// Client is the client protocol engine.
	Client *core.Client

	// Pipe is the simulated network path (exposed for loss/latency
	// statistics).
	Pipe *netsim.Pipe

	// AIK is the client's attestation key handle.
	AIK tpm.Handle

	// Cert is the client's AIK certificate.
	Cert *attest.AIKCert

	backend     store.Backend
	providerCfg core.ProviderConfig
	restarts    int
}

// NewDeployment wires a full deployment: boots the machine, enrolls the
// TPM with the CA, certifies an AIK, builds a provider that approves the
// protocol PALs, seeds the ledger, and connects client to provider over
// the simulated link.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(cfg.Seed ^ 0xDEB10)
	if cfg.Link.Name == "" {
		cfg.Link = netsim.LinkBroadband()
	}
	if cfg.Tracer != nil {
		// A dedicated fork keeps session IDs deterministic per seed
		// without perturbing any other subsystem's random stream.
		cfg.Tracer.SetIDBase(rng.Fork("trace").Uint64())
	}
	if plan, ok := cfg.Faults.(*faults.Plan); ok && cfg.Metrics != nil {
		plan.SetMetrics(cfg.Metrics)
	}

	machine, err := platform.New(platform.Config{
		Clock:       clock,
		Random:      rng.Fork("machine"),
		TPMProfile:  cfg.TPMProfile,
		Protections: cfg.Protections,
		SINITImage:  cfg.SINITImage,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: machine: %w", err)
	}
	osys := hostos.New(machine)
	manager := flicker.NewManager(machine)

	caKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		return nil, fmt.Errorf("workload: CA key: %w", err)
	}
	ca := attest.NewPrivacyCA("unitp-privacy-ca", caKey, clock, rng.Fork("ca"))
	if err := ca.EnrollEK("client-platform", machine.TPM().EK()); err != nil {
		return nil, fmt.Errorf("workload: enroll: %w", err)
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		return nil, fmt.Errorf("workload: AIK: %w", err)
	}
	cert, err := ca.CertifyAIK("client-platform", machine.TPM().EK(), aikPub)
	if err != nil {
		return nil, fmt.Errorf("workload: certify: %w", err)
	}

	provKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		return nil, fmt.Errorf("workload: provider key: %w", err)
	}
	providerCfg := core.ProviderConfig{
		Name:                  "sim-bank",
		CAPub:                 ca.PublicKey(),
		Key:                   provKey,
		Clock:                 clock,
		Random:                rng.Fork("provider"),
		NonceTTL:              cfg.NonceTTL,
		ConfirmThresholdCents: cfg.ConfirmThresholdCents,
		SnapshotEvery:         cfg.SnapshotEvery,
		SessionMaxTx:          cfg.SessionMaxTx,
		SessionMaxAge:         cfg.SessionMaxAge,
		Metrics:               cfg.Metrics,
		Tracer:                cfg.Tracer,
	}
	provider := core.NewProvider(providerCfg)
	approvePALs(provider, machine)

	accounts := cfg.Accounts
	if accounts == nil {
		accounts = DefaultAccounts()
	}
	for name, cents := range accounts {
		if err := provider.Ledger().CreateAccount(name, cents); err != nil {
			return nil, fmt.Errorf("workload: account %s: %w", name, err)
		}
	}
	creds := cfg.Credentials
	if creds == nil {
		creds = map[string]string{"alice": DefaultPIN}
	}
	for user, pin := range creds {
		if err := provider.EnrollCredential(user, pin); err != nil {
			return nil, fmt.Errorf("workload: credential %s: %w", user, err)
		}
	}

	// Setup (accounts, credentials, approvals) happens before the store
	// attaches, so the initial snapshot captures it all.
	if cfg.Backend != nil {
		st, err := store.Open(cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("workload: open store: %w", err)
		}
		if err := provider.AttachStore(st); err != nil {
			return nil, fmt.Errorf("workload: attach store: %w", err)
		}
	}

	d := &Deployment{
		Clock: clock, Rng: rng, Machine: machine, OS: osys,
		Manager: manager, CA: ca, Provider: provider,
		AIK: aik, Cert: cert,
		backend: cfg.Backend, providerCfg: providerCfg,
	}
	d.Pipe = netsim.NewPipe(netsim.Config{
		Clock:   clock,
		Random:  rng.Fork("net"),
		Link:    cfg.Link,
		Retry:   cfg.Retry,
		Faults:  cfg.Faults,
		Metrics: cfg.Metrics,
		Tracer:  cfg.Tracer,
	}, d.handle)

	recovery := cfg.Recovery
	if recovery.Rng == nil {
		recovery.Rng = rng.Fork("recovery")
	}
	client, err := core.NewClient(core.ClientConfig{
		Manager:   manager,
		OS:        osys,
		Transport: d.Pipe,
		AIK:       aik,
		Cert:      cert,
		Recovery:  recovery,
		Tracer:    cfg.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: client: %w", err)
	}
	d.Client = client
	return d, nil
}

// handle is the pipe's server side, indirected through the deployment
// so RestartProvider can swap the provider under live traffic. A dead
// provider (store crash) surfaces as a connection reset — transient
// from the client's point of view — rather than a fatal remote error.
func (d *Deployment) handle(req []byte) ([]byte, error) {
	resp, err := d.Provider.Handle(req)
	if err != nil && errors.Is(err, store.ErrCrashed) {
		return nil, netsim.ErrReset
	}
	return resp, err
}

// RestartProvider models the provider process coming back after a
// crash: a replacement engine is rebuilt from the durability store
// (latest snapshot + WAL tail, audit chain re-verified), configuration
// that is not state — keys and PAL approvals — is re-applied exactly as
// at first construction, and the pipe is re-pointed at the new process.
// When modelling a hard crash, tear the backend first (see
// store.MemBackend.Recover and faults.RecoveryPolicy).
func (d *Deployment) RestartProvider() error {
	if d.backend == nil {
		return fmt.Errorf("workload: deployment has no durability backend")
	}
	st, err := store.Open(d.backend)
	if err != nil {
		return fmt.Errorf("workload: reopen store: %w", err)
	}
	d.restarts++
	pcfg := d.providerCfg
	pcfg.Random = d.Rng.Fork(fmt.Sprintf("provider-life-%d", d.restarts))
	p, err := core.RestoreProvider(pcfg, st)
	if err != nil {
		return fmt.Errorf("workload: restore provider: %w", err)
	}
	approvePALs(p, d.Machine)
	d.Provider = p
	d.Pipe.SetHandler(d.handle)
	return nil
}

// approvePALs approves every PAL the client platform runs, following its
// DRTM flavour: plain image measurement on SKINIT, (SINIT, image) chain
// on TXT.
func approvePALs(p *core.Provider, machine *platform.Machine) {
	approve := func(name string, image []byte) {
		p.Verifier().ApprovePALChain(name,
			machine.LaunchChain(cryptoutil.SHA1(image))...)
	}
	approve(core.ConfirmPALName, core.ConfirmPALImage())
	approve(core.PresencePALName, core.PresencePALImage())
	approve(core.ProvisionPALName, core.ProvisionPALImage(p.PublicKeyDER()))
	approve(core.PINPALName, core.PINPALImage())
	approve(core.BatchPALName, core.BatchPALImage())
	approve(core.SessionConfirmPALName, core.SessionConfirmPALImage())
	approve(core.SessionOpenPALNameFor(p.PublicKeyDER()),
		core.SessionOpenPALImage(p.PublicKeyDER()))
}

// Restarts reports how many times the provider has been restarted.
func (d *Deployment) Restarts() int { return d.restarts }
