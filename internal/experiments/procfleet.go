package experiments

// procfleet is the multi-process harness behind F15: it builds the real
// tpserver binary once, then boots genuine OS-process fleets — one
// process per shard member plus a router process — connected over
// loopback TCP, with the chaos proxy optionally spliced into individual
// replication links. Chaos here is real: members SIGKILL themselves via
// the -kill-*-ship flags (or the harness SIGKILLs them), partitions
// sever live sockets, and the post-mortem audit reopens the survivors'
// data directories from disk — nothing is shared in-process with the
// system under test.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"unitp/internal/check"
	"unitp/internal/core"
	"unitp/internal/faults"
	"unitp/internal/fleet"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/workload"
)

// procReadyTimeout bounds fleet boot (binary spawn through router
// readiness) and the post-chaos convergence waits.
const procReadyTimeout = 30 * time.Second

// procStopTimeout bounds a graceful member shutdown before the harness
// escalates to SIGKILL.
const procStopTimeout = 10 * time.Second

var (
	procBinOnce sync.Once
	procBinPath string
	procBinErr  error
)

// procBinary builds cmd/tpserver into a temp dir once per harness
// process and returns the binary path. The build runs at the module
// root: the package-path form only resolves inside the module.
func procBinary() (string, error) {
	procBinOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			procBinErr = fmt.Errorf("procfleet: locate module: %w", err)
			return
		}
		gomod := strings.TrimSpace(string(out))
		if gomod == "" || gomod == os.DevNull {
			procBinErr = fmt.Errorf("procfleet: not inside a module (GOMOD=%q)", gomod)
			return
		}
		dir, err := os.MkdirTemp("", "tpserver-bin-")
		if err != nil {
			procBinErr = err
			return
		}
		bin := filepath.Join(dir, "tpserver")
		build := exec.Command("go", "build", "-o", bin, "./cmd/tpserver")
		build.Dir = filepath.Dir(gomod)
		if out, err := build.CombinedOutput(); err != nil {
			procBinErr = fmt.Errorf("procfleet: build tpserver: %w\n%s", err, out)
			return
		}
		procBinPath = bin
	})
	return procBinPath, procBinErr
}

// procChaos arms one member with self-kill offsets and/or splices the
// chaos proxy into its inbound replication link.
type procChaos struct {
	killBefore uint64 // SIGKILL self before shipping the batch crossing this offset
	killAfter  uint64 // SIGKILL self after shipping it
	resetRate  float64
	corrupt    float64
	throttle   int  // bytes/sec on the inbound ship link
	proxied    bool // splice a proxy even with no rates (so Partition() works)
}

func (c procChaos) wantsProxy() bool {
	return c.proxied || c.resetRate > 0 || c.corrupt > 0 || c.throttle > 0
}

// procFleetConfig describes one cell's topology and chaos arming.
type procFleetConfig struct {
	tag         string
	shards      int
	followers   int // per shard; member 0 is the starting primary
	healthEvery time.Duration
	chaos       map[[2]int]procChaos // keyed by {shard, member}
}

// procMember is one shard-member child process.
type procMember struct {
	shard, member int
	addr          string // the member's own listener
	shipAddr      string // what replication peers dial (proxy when spliced)
	dataDir       string
	logPath       string
	args          []string
	proxy         *faults.Proxy

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed when the process exits — safe for repeated waits
}

// procFleet is one live multi-process fleet.
type procFleet struct {
	cfg        procFleetConfig
	bin        string
	dir        string
	seedN      int
	homed      []string // one workload account per shard
	members    [][]*procMember
	router     *procMember
	routerAddr string
	adminAddr  string
}

// procHomedAccounts picks one acct-%05d workload account per shard via
// the same ring the router uses, returning the per-shard names and how
// many accounts must be seeded to cover them.
func procHomedAccounts(shards int) ([]string, int) {
	ring := fleet.NewRing(shards, 0)
	names := make([]string, shards)
	found, seedN := 0, 0
	for i := 0; found < shards; i++ {
		name := fmt.Sprintf("acct-%05d", i)
		if s := ring.Shard(name); names[s] == "" {
			names[s] = name
			found++
			seedN = i + 1
		}
	}
	return names, seedN
}

// procMint mints one worker per shard, each draining per 1-cent
// transactions from its shard-homed account into the sink, so every
// shard sees a single sequential commit stream and the -kill-*-ship
// offsets are deterministic.
func procMint(tag string, homed []string, per int) ([][][]byte, error) {
	frames := make([][][]byte, 0, len(homed))
	for w, from := range homed {
		wf := make([][]byte, 0, per)
		for k := 0; k < per; k++ {
			frame, err := core.EncodeMessage(&core.SubmitTx{Tx: &core.Transaction{
				ID: fmt.Sprintf("f15-%s-w%d-%d", tag, w, k), From: from, To: "sink", AmountCents: 1, Currency: "EUR",
			}})
			if err != nil {
				return nil, err
			}
			wf = append(wf, frame)
		}
		frames = append(frames, wf)
	}
	return frames, nil
}

// startProcFleet boots the cell: followers first (their listeners must
// exist before the primary bootstraps them), then primaries, then the
// router, then waits for the router's /readyz to go green.
func startProcFleet(cfg procFleetConfig) (*procFleet, error) {
	bin, err := procBinary()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "f15-"+cfg.tag+"-")
	if err != nil {
		return nil, err
	}
	if cfg.healthEvery <= 0 {
		cfg.healthEvery = 100 * time.Millisecond
	}
	homed, seedN := procHomedAccounts(cfg.shards)
	pf := &procFleet{cfg: cfg, bin: bin, dir: dir, seedN: seedN, homed: homed}

	ok := false
	defer func() {
		if !ok {
			pf.destroy()
		}
	}()

	for s := 0; s < cfg.shards; s++ {
		var shardMembers []*procMember
		for m := 0; m <= cfg.followers; m++ {
			addr, err := procFreeAddr()
			if err != nil {
				return nil, err
			}
			pm := &procMember{
				shard: s, member: m, addr: addr, shipAddr: addr,
				dataDir: filepath.Join(dir, fmt.Sprintf("s%dm%d", s, m)),
				logPath: filepath.Join(dir, fmt.Sprintf("s%dm%d.log", s, m)),
			}
			if ch := cfg.chaos[[2]int{s, m}]; ch.wantsProxy() {
				pm.proxy = faults.NewProxy(faults.ProxyConfig{
					Target:              addr,
					ResetRate:           ch.resetRate,
					CorruptRate:         ch.corrupt,
					ThrottleBytesPerSec: ch.throttle,
					ChunkSize:           512,
					Rng:                 sim.NewRand(seedFor("f15-proxy-"+cfg.tag, s*100+m)),
				})
				shipAddr, err := pm.proxy.Start("127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				pm.shipAddr = shipAddr
			}
			shardMembers = append(shardMembers, pm)
		}
		pf.members = append(pf.members, shardMembers)
	}

	// Followers first.
	for s, shardMembers := range pf.members {
		for _, pm := range shardMembers[1:] {
			pm.args = pf.memberArgs(pm, "follower", nil)
			if err := pm.start(pf.bin); err != nil {
				return nil, err
			}
			if err := procWaitListening(pm.addr); err != nil {
				return nil, pf.bootError(fmt.Errorf("s%dm%d: %w", s, pm.member, err))
			}
		}
	}
	// Then primaries, which bootstrap the followers through their ship
	// addresses (the proxy where one is spliced).
	for s, shardMembers := range pf.members {
		var peers []string
		for _, pm := range shardMembers[1:] {
			peers = append(peers, fmt.Sprintf("%d=%s", pm.member, pm.shipAddr))
		}
		pm := shardMembers[0]
		pm.args = pf.memberArgs(pm, "primary", peers)
		if err := pm.start(pf.bin); err != nil {
			return nil, err
		}
		if err := procWaitListening(pm.addr); err != nil {
			return nil, pf.bootError(fmt.Errorf("s%dm0 primary: %w", s, err))
		}
	}

	// Router last, fronting the whole fleet.
	routerAddr, err := procFreeAddr()
	if err != nil {
		return nil, err
	}
	adminAddr, err := procFreeAddr()
	if err != nil {
		return nil, err
	}
	pf.routerAddr, pf.adminAddr = routerAddr, adminAddr
	pf.router = &procMember{
		shard: -1, member: -1, addr: routerAddr,
		logPath: filepath.Join(dir, "router.log"),
		args: []string{
			"-role", "router", "-addr", routerAddr,
			"-fleet", pf.fleetSpec(),
			"-admin", adminAddr,
			"-health-every", cfg.healthEvery.String(),
			"-log-level", "info",
		},
	}
	if err := pf.router.start(pf.bin); err != nil {
		return nil, err
	}
	if err := pf.waitReady(procReadyTimeout); err != nil {
		return nil, pf.bootError(err)
	}
	ok = true
	return pf, nil
}

// memberArgs builds one member's command line. Restarts reuse it
// verbatim — including any armed kill flags — which is exactly the
// deposed-primary-rejoin scenario: the same command line an operator's
// init system would re-run.
func (pf *procFleet) memberArgs(pm *procMember, role string, peers []string) []string {
	args := []string{
		"-role", role, "-addr", pm.addr,
		"-shard-index", strconv.Itoa(pm.shard), "-member", strconv.Itoa(pm.member),
		"-threshold", "1000000",
		"-snapshot-every", "8",
		"-seed-accounts", strconv.Itoa(pf.seedN),
		"-data", pm.dataDir,
		"-workers", "1",
		"-log-level", "info",
	}
	if ch := pf.cfg.chaos[[2]int{pm.shard, pm.member}]; ch.killBefore > 0 {
		args = append(args, "-kill-before-ship", strconv.FormatUint(ch.killBefore, 10))
	} else if ch.killAfter > 0 {
		args = append(args, "-kill-after-ship", strconv.FormatUint(ch.killAfter, 10))
	}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	return args
}

// fleetSpec renders the router topology, routing each member's
// replication traffic through its proxy where one is spliced.
func (pf *procFleet) fleetSpec() string {
	var shards []string
	for _, shardMembers := range pf.members {
		var parts []string
		for _, pm := range shardMembers {
			entry := fmt.Sprintf("%d=%s", pm.member, pm.addr)
			if pm.shipAddr != pm.addr {
				entry += "~" + pm.shipAddr
			}
			parts = append(parts, entry)
		}
		shards = append(shards, strings.Join(parts, ","))
	}
	return strings.Join(shards, ";")
}

// start spawns (or respawns) the member process, appending to its log.
func (pm *procMember) start(bin string) error {
	logf, err := os.OpenFile(pm.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, pm.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("procfleet: start s%dm%d: %w", pm.shard, pm.member, err)
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		logf.Close()
		close(done)
	}()
	pm.mu.Lock()
	pm.cmd, pm.done = cmd, done
	pm.mu.Unlock()
	return nil
}

// sigkill delivers a harness-side SIGKILL and waits for the exit.
func (pm *procMember) sigkill() {
	pm.mu.Lock()
	cmd, done := pm.cmd, pm.done
	pm.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	cmd.Process.Kill()
	if done != nil {
		<-done
	}
}

// stop shuts the member down gracefully (SIGTERM → drain → finish),
// escalating to SIGKILL after procStopTimeout. Dead processes return
// immediately.
func (pm *procMember) stop() {
	pm.mu.Lock()
	cmd, done := pm.cmd, pm.done
	pm.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(procStopTimeout):
		cmd.Process.Kill()
		<-done
	}
}

// waitExit blocks until the member process exits on its own (a
// self-kill flag firing), bounded by the timeout.
func (pm *procMember) waitExit(timeout time.Duration) error {
	pm.mu.Lock()
	done := pm.done
	pm.mu.Unlock()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("procfleet: s%dm%d did not exit within %v", pm.shard, pm.member, timeout)
	}
}

// stopAll gracefully stops the router then every member, so surviving
// primaries flush their final snapshot for the post-mortem audit.
func (pf *procFleet) stopAll() {
	if pf.router != nil {
		pf.router.stop()
	}
	for _, shardMembers := range pf.members {
		for _, pm := range shardMembers {
			pm.stop()
		}
	}
}

// destroy tears the cell down hard and closes the proxies. Data and
// logs stay in the temp dir for the audit / post-failure inspection.
func (pf *procFleet) destroy() {
	if pf.router != nil {
		pf.router.sigkill()
	}
	for _, shardMembers := range pf.members {
		for _, pm := range shardMembers {
			pm.sigkill()
			if pm.proxy != nil {
				pm.proxy.Close()
			}
		}
	}
}

// waitReady polls the router's /readyz until it answers 200.
func (pf *procFleet) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + pf.adminAddr + "/readyz"
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, body.String())
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("procfleet: router never ready: %s", last)
}

// probe asks one member for its self-reported status over the control
// channel, bypassing any replication proxy.
func (pf *procFleet) probe(shard, member int) (fleet.MemberStatus, error) {
	return fleet.Probe(pf.members[shard][member].addr, shard, 2*time.Second)
}

// maxEpoch sweeps a shard's members for the highest epoch any reachable
// member reports. Epochs only move on promotion, so maxEpoch-1 is the
// shard's lifetime failover count.
func (pf *procFleet) maxEpoch(shard int) uint64 {
	var max uint64
	for m := range pf.members[shard] {
		if st, err := pf.probe(shard, m); err == nil && st.Epoch > max {
			max = st.Epoch
		}
	}
	return max
}

// failovers sums every shard's promotion count (epoch delta from 1).
func (pf *procFleet) failovers() int {
	total := 0
	for s := range pf.members {
		if e := pf.maxEpoch(s); e > 1 {
			total += int(e - 1)
		}
	}
	return total
}

// waitEpochAtLeast waits for some member of the shard to reach the
// epoch — i.e. for a promotion to have happened.
func (pf *procFleet) waitEpochAtLeast(shard int, epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pf.maxEpoch(shard) >= epoch {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("procfleet: shard %d never reached epoch %d (at %d)", shard, epoch, pf.maxEpoch(shard))
}

// currentPrimary finds the shard's live primary.
func (pf *procFleet) currentPrimary(shard int) (int, fleet.MemberStatus, error) {
	var (
		best  fleet.MemberStatus
		bestM = -1
	)
	for m := range pf.members[shard] {
		st, err := pf.probe(shard, m)
		if err != nil || st.Role != fleet.WelcomePrimary || st.Fenced || !st.Healthy {
			continue
		}
		if bestM < 0 || st.Epoch > best.Epoch {
			best, bestM = st, m
		}
	}
	if bestM < 0 {
		return 0, best, fmt.Errorf("procfleet: shard %d has no live primary", shard)
	}
	return bestM, best, nil
}

// waitFollowerLinked waits until the shard's primary reports the member
// as a caught-up replication link — the re-adoption signal.
func (pf *procFleet) waitFollowerLinked(shard, member int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		pm, st, err := pf.currentPrimary(shard)
		if err == nil {
			for _, l := range st.Links {
				if l.Member == member && l.Lag == 0 {
					return nil
				}
			}
			last = fmt.Sprintf("primary m%d links=%v", pm, st.Links)
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("procfleet: s%dm%d never re-linked: %s", shard, member, last)
}

// waitAllLinked waits until the shard's current primary — whoever holds
// the role after any failovers — reports every other member as a
// caught-up replication link.
func (pf *procFleet) waitAllLinked(shard int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		pm, st, err := pf.currentPrimary(shard)
		if err == nil {
			linked := map[int]bool{}
			for _, l := range st.Links {
				if l.Lag == 0 {
					linked[l.Member] = true
				}
			}
			all := true
			for m := range pf.members[shard] {
				if m != pm && !linked[m] {
					all = false
				}
			}
			if all {
				return nil
			}
			last = fmt.Sprintf("primary m%d links=%v", pm, st.Links)
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("procfleet: shard %d members never all linked: %s", shard, last)
}

// waitRole waits for the member to self-report the given role.
func (pf *procFleet) waitRole(shard, member int, role uint8, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		st, err := pf.probe(shard, member)
		if err == nil && st.Role == role {
			return nil
		}
		if err != nil {
			last = err.Error()
		} else {
			last = fmt.Sprintf("role=%d epoch=%d", st.Role, st.Epoch)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("procfleet: s%dm%d never reached role %d: %s", shard, member, role, last)
}

// bootError decorates a boot failure with every child's log tail.
func (pf *procFleet) bootError(err error) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%v", err)
	add := func(name, path string) {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return
		}
		tail := data
		if len(tail) > 2048 {
			tail = tail[len(tail)-2048:]
		}
		fmt.Fprintf(&b, "\n--- %s ---\n%s", name, tail)
	}
	for _, shardMembers := range pf.members {
		for _, pm := range shardMembers {
			add(fmt.Sprintf("s%dm%d", pm.shard, pm.member), pm.logPath)
		}
	}
	if pf.router != nil {
		add("router", pf.router.logPath)
	}
	return fmt.Errorf("%s", b.String())
}

// procAudit is the post-mortem oracle. With every process stopped, it
// reads each member's durable node manifest to find the shard's final
// lineage (the primary role at the highest epoch), restores that
// member's provider from its data directory, and runs the checker over
// the restored providers against the drained acceptances. Every shard
// opens with the ledger the tpserver node roles seed.
func (pf *procFleet) procAudit(accepted map[string]int64) (*check.Report, error) {
	initial := workload.NodeAccounts(pf.seedN)
	var shards []check.Shard
	defer func() {
		for _, sh := range shards {
			sh.Provider.Store().Close()
		}
	}()
	for s, shardMembers := range pf.members {
		winner := -1
		var winEpoch uint64
		for _, pm := range shardMembers {
			mb, err := store.OpenDir(filepath.Join(pm.dataDir, "manifest"))
			if err != nil {
				continue
			}
			man, ok, err := fleet.ReadNodeManifest(mb)
			if err != nil || !ok {
				continue
			}
			if man.Role == fleet.NodeRolePrimary && man.Epoch >= winEpoch {
				winner, winEpoch = pm.member, man.Epoch
			}
		}
		if winner < 0 {
			return nil, fmt.Errorf("procfleet: shard %d has no durable primary lineage", s)
		}
		sb, err := store.OpenDir(filepath.Join(pf.members[s][winner].dataDir, "state"))
		if err != nil {
			return nil, fmt.Errorf("procfleet: shard %d audit open: %w", s, err)
		}
		st, err := store.Open(sb)
		if err != nil {
			return nil, fmt.Errorf("procfleet: shard %d audit store: %w", s, err)
		}
		p, err := core.RestoreProvider(core.ProviderConfig{
			Name:                  fmt.Sprintf("f15-audit-s%d", s),
			Clock:                 sim.WallClock{},
			Random:                sim.NewRand(seedFor("f15-audit", s)),
			ConfirmThresholdCents: 1_000_000,
			Epoch:                 winEpoch + 1,
		}, st)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("procfleet: shard %d post-mortem restore: %w", s, err)
		}
		shards = append(shards, check.Shard{Provider: p, Initial: initial})
	}
	return check.Run(accepted, shards), nil
}

// procFreeAddr grabs an ephemeral localhost port and releases it for
// the child to bind. The tiny reuse race is absorbed by cell retries at
// the CI layer; in practice the port stays free.
func procFreeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// procWaitListening polls until the address accepts a TCP connection.
func procWaitListening(addr string) error {
	deadline := time.Now().Add(procReadyTimeout)
	var last error
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		last = err
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("procfleet: %s never started listening: %v", addr, last)
}
