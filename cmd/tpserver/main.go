// Command tpserver runs the service-provider engine on a real TCP
// socket. Clients (cmd/tpclient) connect, perform a demo-grade
// enrollment handshake (the out-of-band EK/AIK certification step of a
// real deployment), and then speak the uni-directional trusted path
// protocol over length-prefixed frames.
//
// The listener is the hardened internal/wire server: a bounded accept
// pool with overload shedding, per-peer connection quotas and frame
// rate limits, per-connection idle and write deadlines, and graceful
// drain on SIGINT/SIGTERM — stop accepting, answer the in-flight
// requests within -drain-timeout, then flush durable state.
//
// With -data the provider journals every state mutation to a crash-safe
// store (WAL + snapshots) in that directory and restores from it on the
// next start.
//
// With -admin the server also exposes an operational HTTP plane:
// /metrics (JSON, ?format=text — including the wire.* connection
// lifecycle counters), /healthz, /readyz, /trace?n=K (Chrome
// trace_event JSON of recent sessions), and /debug/pprof.
//
// With -shards N (N > 1) the server runs a provider fleet: N shards
// behind a consistent-hash router, each a primary plus -followers
// replicas fed by synchronous WAL shipping. Accounts partition across
// shards by their routing key; a primary that dies is failed over to
// its most caught-up follower transparently, and with -data each role
// journals under <data>/shard-<i>/{manifest,primary,follower-<j>} —
// the manifest names the role holding the shard's current lineage, so
// a restart after a failover resumes the promoted follower's segment.
//
// Usage:
//
//	tpserver -addr :7700 -data /var/lib/tpserver -snapshot-every 64 -admin :7701
//	tpserver -addr :7700 -shards 4 -followers 2 -data /var/lib/tpfleet
package main

import (
	"crypto/rand"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/fleet"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "tpserver: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":7700", "listen address")
		threshold  = flag.Int64("threshold", 0, "auto-accept below this amount in cents (0 = confirm everything)")
		dataDir    = flag.String("data", "", "durability directory (WAL + snapshots); empty = memory-only")
		snapEvery  = flag.Int("snapshot-every", 64, "check the WAL every this many journal commits (needs -data): write a full snapshot once the WAL since the last one has outgrown it, else sync a counters record")
		adminAddr  = flag.String("admin", "", "admin plane listen address (/metrics, /healthz, /readyz, /trace, /debug/pprof); empty = disabled")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceCap   = flag.Int("trace-buffer", 256, "completed session traces retained for /trace")
		workers    = flag.Int("workers", 4, "concurrent request handlers per connection (1 = serial)")
		crypto     = flag.String("crypto", "rsa", "quote-signature crypto profile: "+strings.Join(cryptoutil.SchemeNames(), ", "))
		sessMaxTx  = flag.Uint("session-max-tx", 0, "attested-session transaction budget before a forced full re-quote (0 = default)")
		sessMaxAge = flag.Duration("session-max-age", 0, "attested-session lifetime before a forced full re-quote (0 = default)")
		shards     = flag.Int("shards", 1, "provider shards; >1 fronts them with a consistent-hash router (accounts partition across shards)")
		followers  = flag.Int("followers", 1, "follower replicas per shard, fed by synchronous WAL shipping (fleet mode only)")

		role         = flag.String("role", "single", "process role: single (this process is the whole deployment; -shards>1 runs an in-process fleet), primary/follower (one shard member process), router (front remote shard processes), supervisor (spawn a local fleet of child processes)")
		shardIndex   = flag.Int("shard-index", 0, "this member's shard (node roles)")
		member       = flag.Int("member", 0, "this member's id within its shard (node roles)")
		epoch        = flag.Uint64("epoch", 1, "starting epoch for a virgin data dir (node roles)")
		peers        = flag.String("peers", "", "follower ship endpoints as member=addr,... (role primary)")
		killBefore   = flag.Uint64("kill-before-ship", 0, "chaos: SIGKILL self immediately before shipping the batch that crosses this absolute stream offset (0 = off)")
		killAfter    = flag.Uint64("kill-after-ship", 0, "chaos: SIGKILL self immediately after shipping the batch that crosses this absolute stream offset (0 = off)")
		seedAccounts = flag.Int("seed-accounts", 0, "seed this many workload accounts (acct-00000..) plus their drain sink (node roles)")
		fleetSpec    = flag.String("fleet", "", "router topology: shards ';'-separated, members ','-separated, each id=addr[~shipaddr]; first member is the believed primary (role router)")
		healthEvery  = flag.Duration("health-every", 250*time.Millisecond, "warden health-check interval (role router)")

		maxConns  = flag.Int("max-conns", wire.DefaultMaxConns, "accept-pool bound; further connections are shed with a retryable error frame")
		peerConns = flag.Int("max-conns-per-peer", wire.DefaultMaxConnsPerPeer, "connection quota per remote IP")
		peerRate  = flag.Float64("rate-limit", 0, "per-peer request frames per second (0 = unlimited)")
		drainFor  = flag.Duration("drain-timeout", wire.DefaultDrainTimeout, "graceful shutdown waits this long for in-flight requests")
		idleFor   = flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "close connections with no frame activity for this long")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level)

	scheme, err := cryptoutil.SchemeByName(*crypto)
	if err != nil {
		return fmt.Errorf("-crypto: %w (choose one of: %s)", err, strings.Join(cryptoutil.SchemeNames(), ", "))
	}

	if *role != "single" {
		return runRole(roleParams{
			role:         *role,
			addr:         *addr,
			adminAddr:    *adminAddr,
			dataDir:      *dataDir,
			threshold:    *threshold,
			snapEvery:    *snapEvery,
			workers:      *workers,
			logger:       logger,
			shardIndex:   *shardIndex,
			member:       *member,
			epoch:        *epoch,
			peers:        *peers,
			killBefore:   *killBefore,
			killAfter:    *killAfter,
			seedAccounts: *seedAccounts,
			fleetSpec:    *fleetSpec,
			healthEvery:  *healthEvery,
			shards:       *shards,
			followers:    *followers,
			scheme:       scheme,
			sessMaxTx:    uint32(*sessMaxTx),
			sessMaxAge:   *sessMaxAge,
		})
	}

	clock := sim.WallClock{}
	rng := sim.NewRand(uint64(os.Getpid()))
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(*traceCap)

	caKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return err
	}
	ca := attest.NewPrivacyCA("tpserver-ca", caKey, clock, rng.Fork("ca"))

	policy := sessionPolicy{scheme: scheme, maxTx: uint32(*sessMaxTx), maxAge: *sessMaxAge}
	var eng engine
	if *shards > 1 {
		eng, err = buildFleetEngine(fleetParams{
			shards:    *shards,
			followers: *followers,
			threshold: *threshold,
			snapEvery: *snapEvery,
			dataDir:   *dataDir,
			ca:        ca,
			clock:     clock,
			rng:       rng,
			registry:  registry,
			tracer:    tracer,
			logger:    logger,
			policy:    policy,
		})
	} else {
		eng, err = buildSingleEngine(ca, *threshold, *snapEvery, *dataDir, policy, clock, rng, registry, tracer, logger)
	}
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"threshold_cents", *threshold,
		"durability", durabilityLabel(*dataDir),
		"crypto", scheme.Name(),
		"topology", eng.topology)

	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen: %w", err)
		}
		mux := obs.NewAdminMux(obs.AdminConfig{
			Metrics:   registry,
			Tracer:    tracer,
			Readiness: eng.ready,
			Logger:    logger,
		})
		logger.Info("admin plane up", "addr", adminLn.Addr().String())
		go func() {
			if err := http.Serve(adminLn, mux); err != nil {
				logger.Error("admin plane stopped", "err", err)
			}
		}()
	}

	wsrv := wire.NewServer(wire.ServerConfig{
		Handshake:        enrollHandshake(ca, eng, scheme, logger),
		Classify:         classifyHandlerError,
		Workers:          *workers,
		MaxConns:         *maxConns,
		MaxConnsPerPeer:  *peerConns,
		PeerFramesPerSec: *peerRate,
		IdleTimeout:      *idleFor,
		DrainTimeout:     *drainFor,
		Metrics:          registry,
		Logger:           logger,
	})

	// Graceful shutdown: stop accepting, nudge every reader, wait for
	// in-flight requests to answer (their journal commit completes —
	// Handle only returns after the WAL sync), then flush the store.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	drainRes := make(chan error, 1)
	go func() {
		sig := <-sigCh
		logger.Info("shutting down", "signal", sig.String())
		drainRes <- wsrv.Shutdown()
	}()

	if err := wsrv.Serve(ln); err != nil {
		return err
	}
	if derr := <-drainRes; derr != nil {
		logger.Warn("drain deadline forced connections closed", "err", derr)
	}
	if err := eng.finish(); err != nil {
		return err
	}
	logger.Info("shutdown complete", "topology", eng.topology)
	return nil
}

// enrollHandshake builds the wire handshake hook: read the enrollment
// frame (platformID, EK, AIK — all the out-of-band certification a real
// deployment does once per device), certify the AIK under the server's
// crypto profile, and return the engine handler for the connection's
// frames. The AIK bytes are scheme-encoded (PKCS#1 DER for RSA, 32 raw
// bytes for Ed25519); a client built for a different profile fails the
// certify step loudly rather than obtaining a cert the verifier will
// refuse later. Re-enrollment of a known platform with the same EK is
// idempotent, so a supervised client's reconnect simply re-runs the
// handshake; a different EK for a known platform is still refused
// (ErrEKMismatch).
func enrollHandshake(ca *attest.PrivacyCA, eng engine, scheme cryptoutil.Scheme, logger *slog.Logger) func(net.Conn) (netsim.Handler, error) {
	return func(conn net.Conn) (netsim.Handler, error) {
		hello, err := netsim.ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("read enrollment: %w", err)
		}
		r := cryptoutil.NewReader(hello)
		platformID := r.String()
		ekDER := r.Bytes()
		aikRaw := r.Bytes()
		if err := r.ExpectEOF(); err != nil {
			return nil, fmt.Errorf("enrollment frame: %w", err)
		}
		ek, err := x509.ParsePKCS1PublicKey(ekDER)
		if err != nil {
			return nil, fmt.Errorf("enrollment EK: %w", err)
		}
		if err := ca.EnrollEK(platformID, ek); err != nil && !errors.Is(err, attest.ErrPlatformEnrolled) {
			return nil, fmt.Errorf("enroll: %w", err)
		}
		cert, err := ca.CertifyAIKScheme(platformID, ek, scheme.ID(), aikRaw)
		if err != nil {
			// A profile mismatch is an operator configuration problem:
			// refuse with a permanent error frame so the client reads
			// the reason instead of a bare connection reset, and log it
			// above debug level.
			err = fmt.Errorf("certify (profile %s): %w", scheme.Name(), err)
			logger.Warn("enrollment refused", "platform_id", platformID,
				"remote", conn.RemoteAddr().String(), "err", err)
			_ = netsim.WriteFrame(conn, netsim.EncodeErrorFrameCode(netsim.ErrCodePermanent, err))
			return nil, err
		}
		// Tagged write: a marshalled cert may begin with 0x00, which a
		// bare frame would make indistinguishable from a refusal.
		if err := wire.WriteHandshakeFrame(conn, cert.Marshal()); err != nil {
			return nil, fmt.Errorf("send cert: %w", err)
		}
		logger.Info("enrolled platform", "platform_id", platformID, "remote", conn.RemoteAddr().String())
		return func(req []byte) ([]byte, error) {
			if sid, ok := obs.PeekSession(req); ok {
				logger.Debug("frame", obs.Session(sid), "bytes", len(req))
			}
			return eng.handle(req)
		}, nil
	}
}

// classifyHandlerError maps engine errors to error-frame codes: requests
// the router definitively refuses (a batch spanning shards) are
// permanent — no retransmission changes the routing — while everything
// else keeps the default transient classification.
func classifyHandlerError(err error) uint8 {
	if errors.Is(err, fleet.ErrCrossShard) {
		return netsim.ErrCodePermanent
	}
	return wire.DefaultClassify(err)
}

// sessionPolicy bundles the crypto profile and attested-session limits
// every provider in the process shares, whatever the topology.
type sessionPolicy struct {
	scheme cryptoutil.Scheme
	maxTx  uint32        // 0 = provider default
	maxAge time.Duration // 0 = provider default
}

// apply stamps the policy onto a provider config.
func (sp sessionPolicy) apply(cfg *core.ProviderConfig) {
	cfg.Scheme = sp.scheme
	cfg.SessionMaxTx = sp.maxTx
	cfg.SessionMaxAge = sp.maxAge
}

// engine abstracts what the listener serves: a single provider, or a
// sharded fleet behind a router. The wire server, the admin plane, and
// graceful shutdown are identical either way.
type engine struct {
	topology string
	handle   func(req []byte) ([]byte, error)
	ready    func() obs.Readiness
	finish   func() error
	stats    func() string
}

// buildSingleEngine is the classic deployment: one provider, optionally
// durable.
func buildSingleEngine(ca *attest.PrivacyCA, threshold int64, snapEvery int, dataDir string,
	policy sessionPolicy, clock sim.Clock, rng *sim.Rand, registry *obs.Registry,
	tracer *obs.Tracer, logger *slog.Logger) (engine, error) {

	provKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return engine{}, err
	}
	cfg := core.ProviderConfig{
		Name:                  "tpserver",
		CAPub:                 ca.PublicKey(),
		Key:                   provKey,
		Clock:                 clock,
		Random:                rng.Fork("provider"),
		ConfirmThresholdCents: threshold,
		SnapshotEvery:         snapEvery,
		Metrics:               registry,
		Tracer:                tracer,
	}
	policy.apply(&cfg)
	provider, err := buildProvider(cfg, dataDir, logger)
	if err != nil {
		return engine{}, err
	}
	approvePALs(provider)
	return engine{
		topology: "single",
		handle:   provider.Handle,
		ready:    provider.Health,
		finish:   func() error { return flushProvider(provider) },
		stats:    func() string { return fmt.Sprintf("%+v", provider.Stats()) },
	}, nil
}

// fleetParams bundles buildFleetEngine's many knobs.
type fleetParams struct {
	shards    int
	followers int
	threshold int64
	snapEvery int
	dataDir   string
	ca        *attest.PrivacyCA
	clock     sim.Clock
	rng       *sim.Rand
	registry  *obs.Registry
	tracer    *obs.Tracer
	logger    *slog.Logger
	policy    sessionPolicy
}

// buildFleetEngine runs N shards behind a consistent-hash router, every
// shard member a fleet.Node in this process: a primary plus `followers`
// replicas fed by synchronous WAL shipping. With
// -data member j of shard i keeps its WAL and snapshots under
// <data>/shard-<i>/member-<j>/state and its role/epoch manifest under
// .../manifest — the layout the supervisor's child processes use — and
// a restart resumes whatever role each manifest records. A primary that
// dies is failed over transparently by the router; the straddling
// client request surfaces as a connection reset, which the client
// transport retries against the promoted follower.
func buildFleetEngine(p fleetParams) (engine, error) {
	if p.followers < 1 {
		return engine{}, fmt.Errorf("fleet mode needs at least 1 follower per shard (got %d)", p.followers)
	}
	ln := &fleet.LocalNet{}
	handles := make([]*fleet.ShardHandle, 0, p.shards)
	for i := 0; i < p.shards; i++ {
		h, err := startFleetShard(ln, i, p)
		if err != nil {
			return engine{}, err
		}
		handles = append(handles, h)
	}
	router := fleet.NewRouter(handles, p.registry)
	p.logger.Info("fleet assembled", "shards", p.shards, "followers_per_shard", p.followers)

	return engine{
		topology: fmt.Sprintf("fleet(%d shards × %d followers)", p.shards, p.followers),
		handle:   fleetHandler(router),
		ready:    func() obs.Readiness { return fleetReadiness(handles) },
		finish:   ln.Finish,
		stats: func() string {
			out := ""
			for i, h := range handles {
				out += fmt.Sprintf("shard%d{epoch=%d failovers=%d applied=%v} ",
					i, h.Epoch(), h.Failovers(), h.FollowerApplied())
			}
			return out
		},
	}, nil
}

// startFleetShard starts one shard's members: its own provider key and
// random stream, the shared CA and demo accounts, and per-member
// durable backends when -data is set. A data dir still in the layout of
// the retired in-process shard (one shard MANIFEST naming the active
// role) is refused rather than silently started over.
func startFleetShard(ln *fleet.LocalNet, i int, p fleetParams) (*fleet.ShardHandle, error) {
	shardDir := filepath.Join(p.dataDir, fmt.Sprintf("shard-%d", i))
	if p.dataDir != "" {
		old := filepath.Join(shardDir, "manifest", "MANIFEST")
		if _, err := os.Stat(old); err == nil {
			return nil, fmt.Errorf("shard %d: %s is a shard manifest from the old in-process fleet layout; "+
				"this server keeps one manifest per member under %s/member-<j>/, so move that data dir aside", i, old, shardDir)
		}
	}
	provKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return nil, err
	}
	life := func(epoch uint64) core.ProviderConfig {
		pc := core.ProviderConfig{
			Name:                  fmt.Sprintf("tpserver-shard%d", i),
			CAPub:                 p.ca.PublicKey(),
			Key:                   provKey,
			Clock:                 p.clock,
			Random:                p.rng.Fork(fmt.Sprintf("shard%d-life-%d", i, epoch)),
			Epoch:                 epoch,
			ConfirmThresholdCents: p.threshold,
			SnapshotEvery:         p.snapEvery,
			Metrics:               p.registry,
			Tracer:                p.tracer,
		}
		p.policy.apply(&pc)
		return pc
	}
	return ln.StartShard(i, p.followers, func(m int) fleet.NodeConfig {
		return fleet.NodeConfig{
			NewBackend: func(role string) (store.Backend, error) {
				if p.dataDir == "" {
					return store.NewMemBackend(), nil
				}
				return store.OpenDir(filepath.Join(shardDir, fmt.Sprintf("member-%d", m), role))
			},
			Build: func(epoch uint64) (*core.Provider, error) {
				prov := core.NewProvider(life(epoch))
				approvePALs(prov)
				// Every shard seeds the full demo account set; the ring
				// decides which shard's copy a user actually lives on.
				return prov, seedNodeAccounts(prov, 0)
			},
			Restore: func(epoch uint64, st *store.Store) (*core.Provider, error) {
				// Accounts, credentials, and caches travel in the durable
				// state; only configuration that is not state — the key and
				// the PAL approvals — is re-applied.
				prov, err := core.RestoreProvider(life(epoch), st)
				if err != nil {
					return nil, err
				}
				approvePALs(prov)
				return prov, nil
			},
			Metrics: p.registry,
			Logger:  p.logger,
			Clock:   p.clock,
		}
	}, fleet.ShardHandleConfig{Metrics: p.registry, Tracer: p.tracer, Logger: p.logger, Clock: p.clock})
}

// fleetHandler serves client frames through the fleet router. A
// residual primary death is transient to the client — exactly like a
// single provider's crash — so it surfaces as a reset the client
// transport retries through the failed-over router.
func fleetHandler(router *fleet.Router) netsim.Handler {
	return func(req []byte) ([]byte, error) {
		resp, err := router.Handle(req)
		if err != nil && (errors.Is(err, store.ErrCrashed) || fleet.FailoverTrigger(err)) {
			return nil, netsim.ErrReset
		}
		return resp, err
	}
}

// fleetReadiness is /readyz for a fleet, in-process or distributed: per
// shard the handle's epoch, believed primary, failovers, and the
// primary's replication links, probed live.
func fleetReadiness(handles []*fleet.ShardHandle) obs.Readiness {
	ready := true
	detail := map[string]any{}
	for i, h := range handles {
		st, member, failovers, err := h.Status()
		shardReady := err == nil && st.Healthy && !st.Fenced
		ready = ready && shardReady
		d := map[string]any{
			"ready":     shardReady,
			"epoch":     h.Epoch(),
			"primary":   member,
			"failovers": failovers,
		}
		if err != nil {
			d["error"] = err.Error()
		} else {
			d["links"] = linkDetail(st.Links)
		}
		detail[fmt.Sprintf("shard%d", i)] = d
	}
	return obs.Readiness{Ready: ready, Detail: detail}
}

// approvePALs records the measurement whitelist every provider expects
// from a genuine Flicker session.
func approvePALs(p *core.Provider) {
	p.Verifier().ApprovePAL(core.ConfirmPALName, cryptoutil.SHA1(core.ConfirmPALImage()))
	p.Verifier().ApprovePAL(core.PresencePALName, cryptoutil.SHA1(core.PresencePALImage()))
	p.Verifier().ApprovePAL(core.ProvisionPALName,
		cryptoutil.SHA1(core.ProvisionPALImage(p.PublicKeyDER())))
	p.Verifier().ApprovePAL(core.PINPALName, cryptoutil.SHA1(core.PINPALImage()))
	p.Verifier().ApprovePAL(core.BatchPALName, cryptoutil.SHA1(core.BatchPALImage()))
	p.Verifier().ApprovePAL(core.SessionConfirmPALName, cryptoutil.SHA1(core.SessionConfirmPALImage()))
	p.Verifier().ApprovePAL(core.SessionOpenPALNameFor(p.PublicKeyDER()),
		cryptoutil.SHA1(core.SessionOpenPALImage(p.PublicKeyDER())))
}

// flushProvider writes a final snapshot (truncating the WAL so the next
// start restores without replay) and closes the provider's store.
func flushProvider(p *core.Provider) error {
	st := p.Store()
	if st == nil {
		return nil
	}
	if err := p.SnapshotNow(); err != nil && !errors.Is(err, store.ErrCrashed) {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return nil
}

// buildProvider either restores the provider from an existing durability
// directory or builds a fresh one (seeding demo accounts) and attaches
// the store so the initial snapshot captures the seeded state.
func buildProvider(cfg core.ProviderConfig, dataDir string, logger *slog.Logger) (*core.Provider, error) {
	var st *store.Store
	if dataDir != "" {
		backend, err := store.OpenDir(dataDir)
		if err != nil {
			return nil, fmt.Errorf("open data dir: %w", err)
		}
		st, err = store.Open(backend)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		if st.Snapshot() != nil {
			p, err := core.RestoreProvider(cfg, st)
			if err != nil {
				return nil, fmt.Errorf("restore provider: %w", err)
			}
			stats := st.Stats()
			logger.Info("restored from durable store",
				"generation", st.Generation(),
				"wal_records_replayed", stats.RecoveredRecords)
			return p, nil
		}
	}

	provider := core.NewProvider(cfg)
	if err := seedNodeAccounts(provider, 0); err != nil {
		return nil, err
	}
	if st != nil {
		if err := provider.AttachStore(st); err != nil {
			return nil, fmt.Errorf("attach store: %w", err)
		}
	}
	return provider, nil
}

func durabilityLabel(dataDir string) string {
	if dataDir == "" {
		return "none"
	}
	return dataDir
}
