// Distributed fleet roles: -role router|primary|follower|supervisor run
// the fleet's pieces as separate OS processes connected by the wire
// transport. A node process (primary or follower) is one shard member:
// it serves the role handshake on its listener and switches between
// primary and follower as the fencing protocol demands. The router
// process fronts remote shards over the wire and supervises them with a
// warden. The supervisor is a local convenience: it spawns a whole
// fleet (router + every member) as child processes and restarts the
// ones that die.
//
// Usage:
//
//	tpserver -role follower -addr :7711 -shard-index 0 -member 1 -data /var/lib/tp/s0m1
//	tpserver -role primary  -addr :7710 -shard-index 0 -member 0 -peers 1=:7711 -data /var/lib/tp/s0m0
//	tpserver -role router   -addr :7700 -fleet "0=:7710,1=:7711" -admin :7701
//	tpserver -role supervisor -addr :7700 -shards 2 -followers 1 -data /var/lib/tpfleet -admin :7701
package main

import (
	"crypto/rand"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	"unitp/internal/workload"
)

// roleParams carries the flag values every role shares plus the
// role-specific ones.
type roleParams struct {
	role      string
	addr      string
	adminAddr string
	dataDir   string
	threshold int64
	snapEvery int
	workers   int
	logger    *slog.Logger

	// crypto profile + attested-session limits (all roles)
	scheme     cryptoutil.Scheme
	sessMaxTx  uint32
	sessMaxAge time.Duration

	// node roles
	shardIndex   int
	member       int
	epoch        uint64
	peers        string
	killBefore   uint64
	killAfter    uint64
	seedAccounts int

	// router role
	fleetSpec   string
	healthEvery time.Duration

	// supervisor role
	shards    int
	followers int
}

// runRole dispatches the non-single roles.
func runRole(p roleParams) error {
	switch p.role {
	case "primary", "follower":
		return runNode(p)
	case "router":
		return runRouter(p)
	case "supervisor":
		return runSupervisor(p)
	default:
		return fmt.Errorf("unknown -role %q (single, primary, follower, router, supervisor)", p.role)
	}
}

// runNode runs one shard member process. The starting role only matters
// for a virgin data dir; after that the durable node manifest decides,
// and the fencing protocol moves the member between roles at runtime.
func runNode(p roleParams) error {
	peers, err := parsePeers(p.peers)
	if err != nil {
		return err
	}

	registry := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	clock := sim.WallClock{}
	rng := sim.NewRand(uint64(os.Getpid()))

	// Each node process provisions its own CA and provider key. The
	// replicated state (ledger, nonce caches, audit chain) is what the
	// fleet protocol protects; enrollment against a fleet requires the
	// shared-CA provisioning a real deployment does out of band.
	caKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return err
	}
	ca := attest.NewPrivacyCA(fmt.Sprintf("tpnode-s%dm%d-ca", p.shardIndex, p.member), caKey, clock, rng.Fork("ca"))
	provKey, err := cryptoutil.GenerateRSAKey(rand.Reader, cryptoutil.DefaultRSABits)
	if err != nil {
		return err
	}
	pcfg := core.ProviderConfig{
		Name:                  fmt.Sprintf("tpnode-s%dm%d", p.shardIndex, p.member),
		CAPub:                 ca.PublicKey(),
		Key:                   provKey,
		Clock:                 clock,
		ConfirmThresholdCents: p.threshold,
		SnapshotEvery:         p.snapEvery,
		Metrics:               registry,
		Tracer:                tracer,
	}
	sessionPolicy{scheme: p.scheme, maxTx: p.sessMaxTx, maxAge: p.sessMaxAge}.apply(&pcfg)

	node, err := fleet.NewNode(fleet.NodeConfig{
		Shard:     p.shardIndex,
		Member:    p.member,
		StartRole: p.role,
		Scheme:    p.scheme.ID(),
		Epoch:     p.epoch,
		Followers: peers,
		NewBackend: func(role string) (store.Backend, error) {
			if p.dataDir == "" {
				return store.NewMemBackend(), nil
			}
			return store.OpenDir(filepath.Join(p.dataDir, role))
		},
		Build: func(epoch uint64) (*core.Provider, error) {
			pc := pcfg
			pc.Epoch = epoch
			pc.Random = rng.Fork(fmt.Sprintf("life-%d", epoch))
			prov := core.NewProvider(pc)
			approvePALs(prov)
			if err := seedNodeAccounts(prov, p.seedAccounts); err != nil {
				return nil, err
			}
			return prov, nil
		},
		Restore: func(epoch uint64, st *store.Store) (*core.Provider, error) {
			pc := pcfg
			pc.Epoch = epoch
			pc.Random = rng.Fork(fmt.Sprintf("life-%d", epoch))
			prov, err := core.RestoreProvider(pc, st)
			if err != nil {
				return nil, err
			}
			approvePALs(prov)
			return prov, nil
		},
		Kill:    fleet.KillAtOffsets(p.killBefore, p.killAfter, p.logger),
		Metrics: registry,
		Logger:  p.logger,
		Clock:   clock,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	p.logger.Info("listening",
		"addr", ln.Addr().String(),
		"role", node.Role(),
		"shard", p.shardIndex,
		"member", p.member,
		"durability", durabilityLabel(p.dataDir),
		"topology", "node")

	startAdmin(p, registry, tracer, func() obs.Readiness {
		st := node.Status()
		return obs.Readiness{Ready: st.Healthy, Detail: map[string]any{
			"role":    node.Role(),
			"epoch":   st.Epoch,
			"applied": st.Applied,
			"fenced":  st.Fenced,
			"links":   linkDetail(st.Links),
		}}
	})

	wsrv := wire.NewServer(wire.ServerConfig{
		Handshake: node.Accept,
		Classify:  node.Classify,
		Workers:   p.workers,
		Metrics:   registry,
		Logger:    p.logger,
	})
	return serveUntilSignal(wsrv, ln, p.logger, func() error {
		if err := node.Finish(); err != nil {
			p.logger.Warn("node finish", "err", err)
		}
		return nil
	}, "node")
}

// runRouter fronts remote shard members with the consistent-hash router
// and supervises them with a warden.
func runRouter(p roleParams) error {
	specs, err := parseFleetSpec(p.fleetSpec)
	if err != nil {
		return err
	}
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(256)

	handles := make([]*fleet.ShardHandle, len(specs))
	for i, members := range specs {
		h, err := fleet.NewShardHandle(fleet.ShardHandleConfig{
			Shard:   i,
			Members: members,
			Scheme:  p.scheme.ID(),
			Metrics: registry,
			Tracer:  tracer,
			Logger:  p.logger,
		})
		if err != nil {
			return err
		}
		handles[i] = h
	}
	router := fleet.NewRouter(handles, registry)
	warden := fleet.NewWarden(handles, p.healthEvery, p.logger)
	warden.Start()
	p.logger.Info("fleet router assembled", "shards", len(specs), "health_every", p.healthEvery.String())

	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	p.logger.Info("listening",
		"addr", ln.Addr().String(),
		"role", "router",
		"topology", fmt.Sprintf("router(%d remote shards)", len(specs)))

	startAdmin(p, registry, tracer, func() obs.Readiness { return fleetReadiness(handles) })

	serve := fleetHandler(router)
	wsrv := wire.NewServer(wire.ServerConfig{
		// The distributed demo serves the transaction plane without the
		// enrollment handshake (attestation against a fleet needs the
		// shared-CA provisioning a deployment does out of band).
		Classify: classifyHandlerError,
		Handler: func(req []byte) ([]byte, error) {
			if len(req) > 0 && req[0] == 0 {
				// Core protocol frames never start with a zero byte; this
				// is an interactive client's enrollment hello. Refuse it
				// loudly instead of letting a shard choke on it.
				return nil, &netsim.RemoteError{
					Msg:  "fleet: the distributed router serves the transaction plane only (no enrollment handshake); interactive clients need a -role single tpserver",
					Code: netsim.ErrCodePermanent,
				}
			}
			return serve(req)
		},
		Workers: p.workers,
		Metrics: registry,
		Logger:  p.logger,
	})
	return serveUntilSignal(wsrv, ln, p.logger, func() error {
		warden.Stop()
		for _, h := range handles {
			h.Close()
		}
		return nil
	}, "router")
}

// runSupervisor spawns a whole fleet — router plus shards×(1+followers)
// member processes — as children of this process, restarting any that
// die. It is the one-command local deployment; the children are exactly
// the processes an operator would run by hand.
func runSupervisor(p roleParams) error {
	if p.followers < 1 {
		return fmt.Errorf("supervisor needs at least 1 follower per shard (got %d)", p.followers)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	type memberProc struct {
		shard, member int
		addr          string
	}
	var members []memberProc
	for s := 0; s < p.shards; s++ {
		for m := 0; m <= p.followers; m++ {
			addr, err := freeListenAddr()
			if err != nil {
				return err
			}
			members = append(members, memberProc{shard: s, member: m, addr: addr})
		}
	}

	var children [][]string
	var shardSpecs []string
	for s := 0; s < p.shards; s++ {
		var spec, peers []string
		for _, mp := range members {
			if mp.shard != s {
				continue
			}
			spec = append(spec, fmt.Sprintf("%d=%s", mp.member, mp.addr))
			if mp.member != 0 {
				peers = append(peers, fmt.Sprintf("%d=%s", mp.member, mp.addr))
			}
		}
		shardSpecs = append(shardSpecs, strings.Join(spec, ","))
		for _, mp := range members {
			if mp.shard != s {
				continue
			}
			role := "follower"
			var peerArg []string
			if mp.member == 0 {
				role = "primary"
				peerArg = []string{"-peers", strings.Join(peers, ",")}
			}
			args := []string{
				"-role", role, "-addr", mp.addr,
				"-shard-index", strconv.Itoa(mp.shard), "-member", strconv.Itoa(mp.member),
				"-threshold", strconv.FormatInt(p.threshold, 10),
				"-snapshot-every", strconv.Itoa(p.snapEvery),
				"-seed-accounts", strconv.Itoa(p.seedAccounts),
				"-crypto", p.scheme.Name(),
			}
			if p.sessMaxTx != 0 {
				args = append(args, "-session-max-tx", strconv.FormatUint(uint64(p.sessMaxTx), 10))
			}
			if p.sessMaxAge != 0 {
				args = append(args, "-session-max-age", p.sessMaxAge.String())
			}
			if p.dataDir != "" {
				args = append(args, "-data", filepath.Join(p.dataDir, fmt.Sprintf("shard-%d", mp.shard), fmt.Sprintf("member-%d", mp.member)))
			}
			args = append(args, peerArg...)
			children = append(children, args)
		}
	}
	routerArgs := []string{
		"-role", "router", "-addr", p.addr,
		"-fleet", strings.Join(shardSpecs, ";"),
		"-threshold", strconv.FormatInt(p.threshold, 10),
		"-crypto", p.scheme.Name(),
	}
	if p.adminAddr != "" {
		routerArgs = append(routerArgs, "-admin", p.adminAddr)
	}
	children = append(children, routerArgs)

	stop := make(chan struct{})
	var mu sync.Mutex
	procs := map[int]*os.Process{}
	var wg sync.WaitGroup
	for i, args := range children {
		wg.Add(1)
		go func(id int, args []string) {
			defer wg.Done()
			backoff := 200 * time.Millisecond
			for {
				select {
				case <-stop:
					return
				default:
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Start(); err != nil {
					p.logger.Error("supervisor: start child", "args", strings.Join(args, " "), "err", err)
					return
				}
				mu.Lock()
				procs[id] = cmd.Process
				mu.Unlock()
				err := cmd.Wait()
				mu.Lock()
				delete(procs, id)
				mu.Unlock()
				select {
				case <-stop:
					return
				default:
				}
				p.logger.Warn("supervisor: child exited; restarting",
					"args", strings.Join(args, " "), "err", err, "backoff", backoff.String())
				time.Sleep(backoff)
				if backoff < 2*time.Second {
					backoff *= 2
				}
			}
		}(i, args)
	}
	p.logger.Info("supervisor running",
		"children", len(children), "shards", p.shards, "members_per_shard", p.followers+1, "router_addr", p.addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	p.logger.Info("supervisor shutting down", "signal", sig.String())
	close(stop)
	mu.Lock()
	for _, proc := range procs {
		proc.Signal(syscall.SIGTERM)
	}
	mu.Unlock()
	wg.Wait()
	p.logger.Info("shutdown complete", "topology", "supervisor")
	return nil
}

// serveUntilSignal runs the wire server with the standard graceful
// shutdown: SIGINT/SIGTERM drains in-flight requests, then finish
// flushes role state.
func serveUntilSignal(wsrv *wire.Server, ln net.Listener, logger *slog.Logger, finish func() error, topology string) error {
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
	if err := finish(); err != nil {
		return err
	}
	logger.Info("shutdown complete", "topology", topology)
	return nil
}

// startAdmin exposes the operational HTTP plane when -admin is set.
func startAdmin(p roleParams, registry *obs.Registry, tracer *obs.Tracer, ready func() obs.Readiness) {
	if p.adminAddr == "" {
		return
	}
	adminLn, err := net.Listen("tcp", p.adminAddr)
	if err != nil {
		p.logger.Error("admin listen", "err", err)
		return
	}
	mux := obs.NewAdminMux(obs.AdminConfig{
		Metrics:   registry,
		Tracer:    tracer,
		Readiness: ready,
		Logger:    p.logger,
	})
	p.logger.Info("admin plane up", "addr", adminLn.Addr().String())
	go func() {
		if err := http.Serve(adminLn, mux); err != nil {
			p.logger.Error("admin plane stopped", "err", err)
		}
	}()
}

// linkDetail renders replication link freshness for /readyz.
func linkDetail(links []fleet.LinkHealth) []map[string]any {
	out := make([]map[string]any, 0, len(links))
	for _, l := range links {
		out = append(out, map[string]any{
			"member":     l.Member,
			"acked":      l.Acked,
			"lag":        l.Lag,
			"ack_age_ms": l.AckAge.Milliseconds(),
		})
	}
	return out
}

// seedNodeAccounts seeds workload.NodeAccounts(n), in name order so
// every node lays out its ledger alike, and enrolls alice's PIN.
func seedNodeAccounts(prov *core.Provider, n int) error {
	accounts := workload.NodeAccounts(n)
	names := make([]string, 0, len(accounts))
	for name := range accounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := prov.Ledger().CreateAccount(name, accounts[name]); err != nil {
			return err
		}
	}
	return prov.EnrollCredential("alice", workload.DefaultPIN)
}

// parsePeers parses "member=addr[,member=addr...]" into ship peers.
func parsePeers(spec string) ([]fleet.PeerAddr, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var peers []fleet.PeerAddr
	for _, part := range strings.Split(spec, ",") {
		member, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q (want member=addr)", part)
		}
		m, err := strconv.Atoi(member)
		if err != nil {
			return nil, fmt.Errorf("bad -peers member %q: %v", member, err)
		}
		peers = append(peers, fleet.PeerAddr{Member: m, Addr: addr})
	}
	return peers, nil
}

// parseFleetSpec parses the router topology: shards separated by ';',
// members by ',', each member "id=addr" or "id=addr~shipaddr" (shipaddr
// is what replication peers dial — e.g. a chaos proxy in front of the
// member's listener). The first member listed is the believed primary.
func parseFleetSpec(spec string) ([][]fleet.MemberAddr, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-role router requires -fleet \"id=addr,...;id=addr,...\"")
	}
	var shards [][]fleet.MemberAddr
	for si, shardSpec := range strings.Split(spec, ";") {
		var members []fleet.MemberAddr
		for _, part := range strings.Split(shardSpec, ",") {
			id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("bad -fleet entry %q in shard %d (want id=addr)", part, si)
			}
			m, err := strconv.Atoi(id)
			if err != nil {
				return nil, fmt.Errorf("bad -fleet member %q in shard %d: %v", id, si, err)
			}
			ma := fleet.MemberAddr{Member: m, Addr: addr}
			if main, ship, hasShip := strings.Cut(addr, "~"); hasShip {
				ma.Addr, ma.ShipAddr = main, ship
			}
			members = append(members, ma)
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("-fleet shard %d has no members", si)
		}
		shards = append(shards, members)
	}
	return shards, nil
}

// freeListenAddr grabs an ephemeral localhost port for a supervised
// child. The port is released before the child binds it, so a
// collision is possible in principle; the supervisor's restart loop
// absorbs the rare loss.
func freeListenAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
