package workload

import (
	"errors"
	"fmt"
	"time"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/faults"
	"unitp/internal/fleet"
	"unitp/internal/flicker"
	"unitp/internal/hostos"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/tpm"
)

// FleetConfig parameterizes a sharded, replicated deployment: one
// client platform in front of a fleet.Router over N shards, each shard
// a primary plus followers fed by synchronous WAL shipping — every
// member a fleet.Node, all linked in-process by one fleet.LocalNet.
type FleetConfig struct {
	// Seed drives all randomness deterministically.
	Seed uint64

	// Shards is the partition count (default 2). Followers is the
	// replica count per shard (default 1).
	Shards    int
	Followers int

	// ConfirmThresholdCents, NonceTTL, Accounts, Credentials, and
	// SnapshotEvery configure every shard's provider exactly as their
	// DeploymentConfig counterparts configure the single provider.
	// Every shard is seeded with the full account and credential set:
	// the ring decides which shard's copy a user actually lives on, and
	// per-shard balance conservation stays checkable no matter where
	// the ring sends each account.
	ConfirmThresholdCents int64
	NonceTTL              time.Duration
	Accounts              map[string]int64
	Credentials           map[string]string
	SnapshotEvery         int

	// NewBackend opens storage for one role of one shard. Member 0 (the
	// virgin primary) journals under "primary" and member i+1 under
	// "follower-<i>"; member m keeps its node manifest (the durable
	// role/epoch pointer) under "manifest-<m>". nil gives every role its
	// own store.MemBackend.
	NewBackend func(shard int, role string) (store.Backend, error)

	// Plan schedules fleet faults (primary kills, replication
	// partitions, slow followers; links are named by the follower's
	// member index). When set, replication links are netsim pipes
	// carrying the plan's injectors; otherwise they are direct calls.
	Plan *faults.FleetPlan

	// Link is the client↔router path (default broadband); Retry and
	// Recovery configure the client exactly as in DeploymentConfig.
	Link     netsim.Link
	Retry    *netsim.RetryPolicy
	Recovery core.RecoveryConfig

	// Metrics and Tracer instrument every subsystem; both may be nil.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// FleetDeployment is a complete simulated sharded system: one client
// machine and CA, a router, and N replicated shards.
type FleetDeployment struct {
	// Clock is the shared virtual clock; Rng the deterministic root.
	Clock *sim.VirtualClock
	Rng   *sim.Rand

	// Machine, OS, Manager, CA, AIK, Cert are the client platform —
	// identical in role to their Deployment counterparts.
	Machine *platform.Machine
	OS      *hostos.OS
	Manager *flicker.Manager
	CA      *attest.PrivacyCA
	AIK     tpm.Handle
	Cert    *attest.AIKCert

	// Router fronts the shards; Client speaks to it over Pipe.
	Router *fleet.Router
	Client *core.Client
	Pipe   *netsim.Pipe
}

// NewFleet wires a sharded deployment. Each shard's provider gets its
// own RSA key and random fork but shares the client platform's CA and
// PAL approvals; failover rebuilds providers with the same key so
// clients never see the shard's identity change.
func NewFleet(cfg FleetConfig) (*FleetDeployment, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Followers <= 0 {
		cfg.Followers = 1
	}
	if cfg.Link.Name == "" {
		cfg.Link = netsim.LinkBroadband()
	}
	if cfg.NewBackend == nil {
		cfg.NewBackend = func(int, string) (store.Backend, error) {
			return store.NewMemBackend(), nil
		}
	}

	clock := sim.NewVirtualClock()
	rng := sim.NewRand(cfg.Seed ^ 0xF1EE7)
	if cfg.Tracer != nil {
		cfg.Tracer.SetIDBase(rng.Fork("trace").Uint64())
	}

	machine, err := platform.New(platform.Config{
		Clock:  clock,
		Random: rng.Fork("machine"),
	})
	if err != nil {
		return nil, fmt.Errorf("workload: fleet machine: %w", err)
	}
	osys := hostos.New(machine)
	manager := flicker.NewManager(machine)

	caKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		return nil, fmt.Errorf("workload: fleet CA key: %w", err)
	}
	ca := attest.NewPrivacyCA("unitp-privacy-ca", caKey, clock, rng.Fork("ca"))
	if err := ca.EnrollEK("client-platform", machine.TPM().EK()); err != nil {
		return nil, fmt.Errorf("workload: fleet enroll: %w", err)
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		return nil, fmt.Errorf("workload: fleet AIK: %w", err)
	}
	cert, err := ca.CertifyAIK("client-platform", machine.TPM().EK(), aikPub)
	if err != nil {
		return nil, fmt.Errorf("workload: fleet certify: %w", err)
	}

	accounts := cfg.Accounts
	if accounts == nil {
		accounts = DefaultAccounts()
	}
	creds := cfg.Credentials
	if creds == nil {
		creds = map[string]string{"alice": DefaultPIN}
	}

	ln := &fleet.LocalNet{}
	if plan := cfg.Plan; plan != nil {
		ln.Link = func(shard, member int, h netsim.Handler) netsim.Transport {
			return netsim.NewPipe(netsim.Config{
				Clock:  clock,
				Random: rng.Fork(fmt.Sprintf("shard%d-repnet", shard)).Fork(fmt.Sprintf("link-%d-%d", shard, member)),
				Link:   netsim.LinkLoopback(),
				Faults: plan.LinkInjector(shard, member),
			}, h)
		}
	}
	shards := make([]*fleet.ShardHandle, 0, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		shard, err := startFleetShard(ln, s, cfg, clock, rng, machine, ca, accounts, creds)
		if err != nil {
			return nil, err
		}
		shards = append(shards, shard)
	}

	d := &FleetDeployment{
		Clock: clock, Rng: rng, Machine: machine, OS: osys,
		Manager: manager, CA: ca, AIK: aik, Cert: cert,
		Router: fleet.NewRouter(shards, cfg.Metrics),
	}
	d.Pipe = netsim.NewPipe(netsim.Config{
		Clock:   clock,
		Random:  rng.Fork("net"),
		Link:    cfg.Link,
		Retry:   cfg.Retry,
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
		return nil, fmt.Errorf("workload: fleet client: %w", err)
	}
	d.Client = client
	return d, nil
}

// startFleetShard starts one shard's members on ln and returns its
// handle.
func startFleetShard(ln *fleet.LocalNet, s int, cfg FleetConfig, clock *sim.VirtualClock, rng *sim.Rand,
	machine *platform.Machine, ca *attest.PrivacyCA,
	accounts map[string]int64, creds map[string]string) (*fleet.ShardHandle, error) {

	provKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		return nil, fmt.Errorf("workload: shard %d key: %w", s, err)
	}
	pcfg := core.ProviderConfig{
		Name:                  fmt.Sprintf("sim-bank-shard%d", s),
		CAPub:                 ca.PublicKey(),
		Key:                   provKey,
		Clock:                 clock,
		NonceTTL:              cfg.NonceTTL,
		ConfirmThresholdCents: cfg.ConfirmThresholdCents,
		SnapshotEvery:         cfg.SnapshotEvery,
		Metrics:               cfg.Metrics,
		Tracer:                cfg.Tracer,
	}
	approve := func(p *core.Provider) {
		chain := func(name string, image []byte) {
			p.Verifier().ApprovePALChain(name,
				machine.LaunchChain(cryptoutil.SHA1(image))...)
		}
		chain(core.ConfirmPALName, core.ConfirmPALImage())
		chain(core.PresencePALName, core.PresencePALImage())
		chain(core.ProvisionPALName, core.ProvisionPALImage(p.PublicKeyDER()))
		chain(core.PINPALName, core.PINPALImage())
		chain(core.BatchPALName, core.BatchPALImage())
	}
	life := func(epoch uint64) core.ProviderConfig {
		pc := pcfg
		pc.Epoch = epoch
		pc.Random = rng.Fork(fmt.Sprintf("shard%d-life-%d", s, epoch))
		return pc
	}
	build := func(epoch uint64) (*core.Provider, error) {
		p := core.NewProvider(life(epoch))
		approve(p)
		for name, cents := range accounts {
			if err := p.Ledger().CreateAccount(name, cents); err != nil {
				return nil, fmt.Errorf("workload: shard %d account %s: %w", s, name, err)
			}
		}
		for user, pin := range creds {
			if err := p.EnrollCredential(user, pin); err != nil {
				return nil, fmt.Errorf("workload: shard %d credential %s: %w", s, user, err)
			}
		}
		return p, nil
	}
	restore := func(epoch uint64, st *store.Store) (*core.Provider, error) {
		// Accounts, credentials, and caches travel in the replicated
		// state; only configuration that is not state — the key and
		// the PAL approvals — is re-applied.
		p, err := core.RestoreProvider(life(epoch), st)
		if err != nil {
			return nil, err
		}
		approve(p)
		return p, nil
	}
	return ln.StartShard(s, cfg.Followers, func(m int) fleet.NodeConfig {
		return fleet.NodeConfig{
			NewBackend: func(role string) (store.Backend, error) {
				if role == "manifest" {
					return cfg.NewBackend(s, fmt.Sprintf("manifest-%d", m))
				}
				if m == 0 {
					return cfg.NewBackend(s, "primary")
				}
				return cfg.NewBackend(s, fmt.Sprintf("follower-%d", m-1))
			},
			Build:   build,
			Restore: restore,
			Kill:    cfg.Plan.Killer(s),
			Metrics: cfg.Metrics,
			Clock:   clock,
		}
	}, fleet.ShardHandleConfig{Metrics: cfg.Metrics, Tracer: cfg.Tracer, Clock: clock})
}

// handle is the pipe's server side: the router, with residual primary
// deaths surfacing as connection resets — transient from the client's
// point of view, exactly like a single provider's crash — so the
// client transport retries through the (by then failed-over) router.
func (d *FleetDeployment) handle(req []byte) ([]byte, error) {
	resp, err := d.Router.Handle(req)
	if err != nil && (errors.Is(err, store.ErrCrashed) || fleet.FailoverTrigger(err)) {
		return nil, netsim.ErrReset
	}
	return resp, err
}
