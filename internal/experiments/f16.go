package experiments

import (
	"crypto/rsa"
	"fmt"
	"runtime"
	"slices"
	"time"

	"unitp/internal/attest"
	"unitp/internal/check"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/metrics"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/workload"
)

// F16 breaks the crypto ceiling apart: confirmations per second per
// core across the pluggable quote-signature schemes (RSA/SHA-1 as the
// paper runs it, and Ed25519) crossed with the attested-session
// re-quote interval (N = 1 is a full quote per transaction; N =
// 10/100 amortize one quote-verified session open over N HMAC-
// authenticated confirmations).
//
// Two throughputs are read off the same serial drive, by timing the
// provider's Handle calls and the client's evidence minting separately:
//
//   - provider confirmations/sec/core — the provider-bound capacity an
//     operator provisions for;
//   - device+provider confirmations/sec — the end-to-end single-stream
//     rate a phone-class client experiences, where the signing cost of
//     the scheme lands on the weak side of the link.
//
// The scheme choice crosses over between those two views (RSA verifies
// cheaply but signs expensively; Ed25519 the reverse), and the session
// path beats both by making the scheme nearly irrelevant at interval
// 100. A failover arm crashes a durable provider mid-session and checks
// the security story survives the speedup: sessions die with the
// process, the client is forced back to a full re-quote, and
// exactly-once plus the audit chain hold across the restart.

// F16 drives its cells in f16Rounds rounds; each round runs
// f16RoundTxs confirmations of every cell in turn, in blocks of the
// cell's interval (one session open and its whole budget of
// confirmations, or one full-quote confirmation at interval 1), and
// times every block. A cell's rate is its interval over its median
// block time. Interleaving the cells round by round spreads a slow
// spell on a shared host (seconds of contention from other tenants)
// over every cell rather than whichever cell it lands in, and the
// median drops the few blocks a scheduler hiccup or a garbage
// collection lands in.
const (
	f16Rounds   = 20
	f16RoundTxs = 200
)

// f16FailTxs is the failover arm's transaction count (half before the
// kill, half after).
const f16FailTxs = 120

// f16Intervals is the re-quote interval sweep: a full quote-verified
// session open every N confirmations (N = 1 disables sessions —
// every transaction pays a full quote, the paper's baseline).
var f16Intervals = []int{1, 10, 100}

// f16Schemes is the crypto-profile sweep.
var f16Schemes = []string{"rsa", "ed25519"}

// f16Accounts is every F16 provider's ledger at start.
var f16Accounts = map[string]int64{"alice": 1 << 40, "bob": 0}

// f16Fixture holds the expensive, reusable material: one CA, one
// provider keypair, and one certified synthetic client per scheme. Keys
// are production-size (DefaultRSABits) because the verify cost is the
// subject here, not an overhead to minimize.
type f16Fixture struct {
	caPub   *rsa.PublicKey
	provKey *rsa.PrivateKey
	palMeas cryptoutil.Digest
	clients map[string]*workload.SyntheticClient
}

func buildF16Fixture() (*f16Fixture, error) {
	caKey, err := cryptoutil.GenerateRSAKey(sim.NewRand(seedFor("f16-ca", 0)), cryptoutil.DefaultRSABits)
	if err != nil {
		return nil, err
	}
	ca := attest.NewPrivacyCA("f16-ca", caKey, nil, sim.NewRand(seedFor("f16-ca", 1)))
	provKey, err := cryptoutil.GenerateRSAKey(sim.NewRand(seedFor("f16-prov", 0)), cryptoutil.DefaultRSABits)
	if err != nil {
		return nil, err
	}
	f := &f16Fixture{
		caPub:   ca.PublicKey(),
		provKey: provKey,
		palMeas: cryptoutil.SHA1([]byte("f16-confirm-pal")),
		clients: map[string]*workload.SyntheticClient{},
	}
	for i, name := range f16Schemes {
		scheme, err := cryptoutil.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		client, err := workload.NewSyntheticClientScheme(ca, "f16-"+name, f.palMeas,
			sim.NewRand(seedFor("f16-client", i)), cryptoutil.DefaultRSABits, scheme)
		if err != nil {
			return nil, err
		}
		f.clients[name] = client
	}
	return f, nil
}

// providerCfg builds one cell's provider configuration; interval > 1
// becomes the session transaction budget (the enforced re-quote N).
func (f *f16Fixture) providerCfg(schemeName string, interval int, seq int) (core.ProviderConfig, error) {
	scheme, err := cryptoutil.SchemeByName(schemeName)
	if err != nil {
		return core.ProviderConfig{}, err
	}
	cfg := core.ProviderConfig{
		Name:   "f16",
		CAPub:  f.caPub,
		Key:    f.provKey,
		Clock:  sim.WallClock{},
		Random: sim.NewRand(seedFor("f16-provider", seq)),
		Scheme: scheme,
		// Only the transaction budget forces re-quotes in this
		// experiment; the lifetime stays out of the way.
		SessionMaxAge: time.Hour,
	}
	if interval > 1 {
		cfg.SessionMaxTx = uint32(interval)
	}
	return cfg, nil
}

// approveF16PALs whitelists the synthetic confirm PAL and the
// provider-key-bound session-open PAL.
func (f *f16Fixture) approveF16PALs(p *core.Provider) {
	p.Verifier().ApprovePAL(core.ConfirmPALName, f.palMeas)
	p.Verifier().ApprovePAL(core.SessionOpenPALNameFor(p.PublicKeyDER()),
		cryptoutil.SHA1(core.SessionOpenPALImage(p.PublicKeyDER())))
}

func (f *f16Fixture) newF16Provider(schemeName string, interval int) (*core.Provider, error) {
	cfg, err := f.providerCfg(schemeName, interval, 0)
	if err != nil {
		return nil, err
	}
	p := core.NewProvider(cfg)
	f.approveF16PALs(p)
	for acct, cents := range f16Accounts {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// f16Driver drives one provider serially, splitting the elapsed time
// into provider work (Handle) and client work (evidence and MAC
// minting). Frame encode/decode is unattributed noise — well under a
// microsecond against the cheapest measured operation.
type f16Driver struct {
	p        *core.Provider
	client   *workload.SyntheticClient
	interval int

	providerNS time.Duration
	clientNS   time.Duration

	sess     *workload.SessionMaterial
	sessUsed int
	nextSID  uint64
	opens    int
	requotes int              // stale-session refusals that forced a fresh open
	accepted map[string]int64 // confirmed transaction ID -> amount
}

// handle round-trips one message through the provider, timing only the
// provider's side.
func (dr *f16Driver) handle(msg any) (any, error) {
	req, err := core.EncodeMessage(msg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := dr.p.Handle(req)
	dr.providerNS += time.Since(start)
	if err != nil {
		return nil, err
	}
	return core.DecodeMessage(resp)
}

// openSession runs the full attested session establishment: challenge,
// quote-verified proof, grant.
func (dr *f16Driver) openSession() error {
	dr.nextSID++
	sid := dr.nextSID
	resp, err := dr.handle(&core.SessionOpen{PlatformID: dr.client.PlatformID, Account: "alice"})
	if err != nil {
		return err
	}
	ch, ok := resp.(*core.SessionChallenge)
	if !ok {
		return fmt.Errorf("experiments: f16 session open: got %T, want challenge", resp)
	}
	start := time.Now()
	sess, evidence, err := dr.client.OpenSessionEvidence(ch.Nonce, "alice", sid, ch.ProviderPubDER, ch.KexPub)
	dr.clientNS += time.Since(start)
	if err != nil {
		return err
	}
	resp, err = dr.handle(&core.SessionProve{
		Nonce: ch.Nonce, PlatformID: dr.client.PlatformID, Account: "alice",
		SessionID: sid, EncKey: sess.EncKey, Evidence: evidence,
	})
	if err != nil {
		return err
	}
	if _, ok := resp.(*core.SessionGrant); !ok {
		return fmt.Errorf("experiments: f16 session prove: got %T, want grant", resp)
	}
	dr.sess, dr.sessUsed = sess, 0
	dr.opens++
	return nil
}

// confirmOne submits and confirms one transaction under the driver's
// mode: a full quote at interval 1, the session HMAC otherwise (opening
// a fresh session whenever the re-quote budget is spent — the proactive
// client; a lazy one would pay an extra refused round trip).
func (dr *f16Driver) confirmOne(id string) error {
	if dr.interval > 1 && (dr.sess == nil || dr.sessUsed >= dr.interval) {
		if err := dr.openSession(); err != nil {
			return err
		}
	}
	tx := &core.Transaction{ID: id, From: "alice", To: "bob", AmountCents: 1, Currency: "EUR"}
	resp, err := dr.handle(&core.SubmitTx{Tx: tx})
	if err != nil {
		return err
	}
	ch, ok := resp.(*core.Challenge)
	if !ok {
		return fmt.Errorf("experiments: f16 submit %s: got %T, want challenge", id, resp)
	}

	var answer any
	start := time.Now()
	if dr.interval > 1 {
		counter, mac := dr.sess.ConfirmMAC(ch.Nonce, ch.Tx.Digest(), true)
		answer = &core.ConfirmTxSession{
			Nonce: ch.Nonce, Confirmed: true,
			SessionID: dr.sess.ID, Counter: counter, MAC: mac,
		}
	} else {
		evidence, err := dr.client.ConfirmEvidence(ch.Nonce, ch.Tx.Digest(), true)
		if err != nil {
			return err
		}
		answer = &core.ConfirmTx{Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: evidence}
	}
	dr.clientNS += time.Since(start)

	resp, err = dr.handle(answer)
	if err != nil {
		return err
	}
	out, ok := resp.(*core.Outcome)
	if !ok {
		return fmt.Errorf("experiments: f16 confirm %s: got %T, want outcome", id, resp)
	}
	if !out.Accepted {
		if dr.interval > 1 && out.Retryable {
			// The session died under us (restart, demotion): the protocol
			// forces a full re-quote. Open fresh and retry the same order
			// — its ID is the idempotence key.
			dr.requotes++
			if err := dr.openSession(); err != nil {
				return err
			}
			return dr.confirmOne(id)
		}
		return fmt.Errorf("experiments: f16 confirm %s refused: %s", id, out.Reason)
	}
	dr.sessUsed++
	if dr.accepted == nil {
		dr.accepted = map[string]int64{}
	}
	dr.accepted[id] = tx.AmountCents
	return nil
}

// verifyF16 audits one finished drive: the checker, replaying the audit
// log, over what the drive saw accepted, and the replay's per-mode
// entry counts matching what the drive did.
func verifyF16(dr *f16Driver) error {
	rep := check.Run(dr.accepted, []check.Shard{{Provider: dr.p, Initial: f16Accounts}})
	if err := rep.Err(); err != nil {
		return fmt.Errorf("experiments: f16: %w", err)
	}
	report, txs := rep.Audits[0], len(dr.accepted)
	wantSessionConfirms := 0
	if dr.interval > 1 {
		wantSessionConfirms = txs
	}
	if report.SessionOpens != dr.opens || report.SessionConfirms != wantSessionConfirms {
		return fmt.Errorf("experiments: f16 audit records %d opens / %d session confirms, want %d / %d",
			report.SessionOpens, report.SessionConfirms, dr.opens, wantSessionConfirms)
	}
	if dr.interval == 1 && report.Reverified != txs {
		return fmt.Errorf("experiments: f16 audit re-verified %d quote confirms, want %d", report.Reverified, txs)
	}
	return nil
}

// f16Cell is one cell: the drive of its provider and its timed blocks.
type f16Cell struct {
	dr            *f16Driver
	txs           int
	provider, e2e []time.Duration // per block: provider time, and device+provider time
}

// runBlocks drives n more confirmations through the cell, timing each
// block of interval confirmations.
func (c *f16Cell) runBlocks(schemeName string, n int) error {
	for end := c.txs + n; c.txs < end; {
		prov0, client0 := c.dr.providerNS, c.dr.clientNS
		for stop := c.txs + c.dr.interval; c.txs < stop; c.txs++ {
			if err := c.dr.confirmOne(fmt.Sprintf("f16-%s-%d-%d", schemeName, c.dr.interval, c.txs)); err != nil {
				return err
			}
		}
		c.provider = append(c.provider, c.dr.providerNS-prov0)
		c.e2e = append(c.e2e, c.dr.providerNS-prov0+c.dr.clientNS-client0)
	}
	return nil
}

// providerTput is the cell's confirmations/sec/core, provider side.
func (c *f16Cell) providerTput() float64 {
	return float64(c.dr.interval) / medianDuration(c.provider).Seconds()
}

// e2eTput is the cell's confirmations/sec, device+provider serial.
func (c *f16Cell) e2eTput() float64 {
	return float64(c.dr.interval) / medianDuration(c.e2e).Seconds()
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// runF16Failover is the security arm: a durable provider is killed 60
// confirmations into a 100-interval session and restored from its
// store. Sessions live only in memory, so the restart forces the
// client back to a full quote-verified re-open; the arm then audits
// exactly-once and the chain across the whole run.
func (f *f16Fixture) runF16Failover() (requotes, opens int, err error) {
	backend := store.NewMemBackend()
	st, err := store.Open(backend)
	if err != nil {
		return 0, 0, err
	}
	cfg, err := f.providerCfg("rsa", 100, 100)
	if err != nil {
		return 0, 0, err
	}
	p := core.NewProvider(cfg)
	f.approveF16PALs(p)
	for acct, cents := range f16Accounts {
		if err := p.Ledger().CreateAccount(acct, cents); err != nil {
			return 0, 0, err
		}
	}
	if err := p.AttachStore(st); err != nil {
		return 0, 0, err
	}

	dr := &f16Driver{p: p, client: f.clients["rsa"], interval: 100}
	half := f16FailTxs / 2
	for i := 0; i < half; i++ {
		if err := dr.confirmOne(fmt.Sprintf("f16-fail-%d", i)); err != nil {
			return 0, 0, err
		}
	}

	// SIGKILL equivalent: the process is gone, the unsynced window is
	// lost, and a replacement restores from the durable store. The open
	// session is memory-only by design — it must not survive this.
	backend.Recover(nil)
	st2, err := store.Open(backend)
	if err != nil {
		return 0, 0, err
	}
	cfg2, err := f.providerCfg("rsa", 100, 101)
	if err != nil {
		return 0, 0, err
	}
	p2, err := core.RestoreProvider(cfg2, st2)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: f16 restore: %w", err)
	}
	f.approveF16PALs(p2)
	dr.p = p2

	for i := half; i < f16FailTxs; i++ {
		if err := dr.confirmOne(fmt.Sprintf("f16-fail-%d", i)); err != nil {
			return 0, 0, err
		}
	}
	if dr.requotes < 1 {
		return 0, 0, fmt.Errorf("experiments: f16 failover forced no re-quote (session survived a restart?)")
	}
	if err := verifyF16(dr); err != nil {
		return 0, 0, err
	}
	return dr.requotes, dr.opens, nil
}

// RunF16 sweeps crypto profile × re-quote interval and reports both
// provider-side and device+provider confirmation throughput, plus the
// failover security arm.
//
// Shape expectations: the attested-session path at interval 100 clears
// ≥5× the RSA-per-transaction provider throughput; the best scheme
// flips between the provider-side and end-to-end views (the crossover
// that makes the profile a deployment choice, not a fixed answer); and
// the failover arm forces at least one full re-quote with exactly-once
// and a replaying audit chain intact.
func RunF16() (*Result, error) {
	fixture, err := buildF16Fixture()
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		fmt.Sprintf("F16: confirmations/sec by crypto profile × re-quote interval — %d confirms per cell in %d interleaved rounds; rate = interval / median time of a block of interval confirms (real wall time, GOMAXPROCS=%d)",
			f16Rounds*f16RoundTxs, f16Rounds, runtime.GOMAXPROCS(0)),
		"scheme", "interval", "provider conf/s/core", "device+provider conf/s")
	series := metrics.Series{Name: "provider-conf-per-sec-vs-interval (rsa)"}

	cells := map[string]map[int]*f16Cell{}
	for _, schemeName := range f16Schemes {
		cells[schemeName] = map[int]*f16Cell{}
		for _, interval := range f16Intervals {
			p, err := fixture.newF16Provider(schemeName, interval)
			if err != nil {
				return nil, err
			}
			cells[schemeName][interval] = &f16Cell{dr: &f16Driver{p: p, client: fixture.clients[schemeName], interval: interval}}
		}
	}
	for round := 0; round < f16Rounds; round++ {
		for _, schemeName := range f16Schemes {
			for _, interval := range f16Intervals {
				if err := cells[schemeName][interval].runBlocks(schemeName, f16RoundTxs); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, schemeName := range f16Schemes {
		for _, interval := range f16Intervals {
			c := cells[schemeName][interval]
			if err := verifyF16(c.dr); err != nil {
				return nil, err
			}
			table.AddRow(schemeName, fmt.Sprintf("%d", interval),
				fmt.Sprintf("%8.0f", c.providerTput()), fmt.Sprintf("%8.0f", c.e2eTput()))
			if schemeName == "rsa" {
				series.Add(float64(interval), c.providerTput())
			}
		}
	}

	// Verdict 1: the session fast path amortizes the quote away.
	speedup := cells["rsa"][100].providerTput() / cells["rsa"][1].providerTput()
	sessionVerdict := "PASS"
	if speedup < 5 {
		sessionVerdict = "FAIL"
	}

	// Verdict 2: the scheme choice crosses over between the provider-
	// bound and device-bound views at interval 1 (full quote per tx) —
	// whichever profile wins one view loses the other.
	provWinner, e2eWinner := "rsa", "rsa"
	if cells["ed25519"][1].providerTput() > cells["rsa"][1].providerTput() {
		provWinner = "ed25519"
	}
	if cells["ed25519"][1].e2eTput() > cells["rsa"][1].e2eTput() {
		e2eWinner = "ed25519"
	}
	crossoverVerdict := "PASS"
	if provWinner == e2eWinner {
		crossoverVerdict = "FAIL"
	}

	// Verdict 3: failover forces a re-quote and breaks nothing.
	requotes, opens, err := fixture.runF16Failover()
	if err != nil {
		return nil, err
	}

	text := joinSections(table.Render(), series.Render(),
		fmt.Sprintf("session speedup: %.2fx provider conf/s/core at interval 100 vs rsa per-tx (target ≥ 5x) — %s\n", speedup, sessionVerdict)+
			fmt.Sprintf("crossover @interval 1: provider-bound winner %s, device-bound winner %s (must differ) — %s\n",
				provWinner, e2eWinner, crossoverVerdict)+
			fmt.Sprintf("failover arm: %d forced re-quote(s), %d session opens over %d confirms; exactly-once and audit replay held — PASS\n",
				requotes, opens, f16FailTxs))
	return &Result{ID: "f16", Title: "Crypto profile × re-quote interval throughput", Text: text}, nil
}
