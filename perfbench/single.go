package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/sim"
	"unitp/internal/store"
	"unitp/internal/workload"
)

// providerSys is a single core.Provider driven through Handle: with no
// store (quote-verify) or durable on a timed store backend
// (session-wal, session-snapshot).
type providerSys struct {
	env     *env
	tr      *tracer
	p       *core.Provider
	st      *store.Store
	backend *timedBackend
	session bool

	sess  []clientSession // per client; each client touches only its own
	opens atomic.Int64
}

// clientSession is one client's current attested session.
type clientSession struct {
	mat     *workload.SessionMaterial
	account string
	used    int
	nextID  uint64
}

// buildProvider is the single-provider set-up: provider built, bank
// seeded, and — when durable — the store attached with its initial
// snapshot.
func buildProvider(e *env, tr *tracer, durable, session bool, snapshotEvery int) (system, error) {
	scheme, err := cryptoutil.SchemeByName("ed25519")
	if err != nil {
		return nil, err
	}
	p := core.NewProvider(core.ProviderConfig{
		Name:          "perfbench",
		CAPub:         e.caPub,
		Key:           e.provKey,
		Clock:         sim.WallClock{},
		Random:        sim.NewRand(uint64(e.seed) ^ 0x9E0),
		Scheme:        scheme,
		SnapshotEvery: snapshotEvery,
	})
	p.Verifier().ApprovePAL(core.ConfirmPALName, e.palMeas)
	der := p.PublicKeyDER()
	p.Verifier().ApprovePAL(core.SessionOpenPALNameFor(der), cryptoutil.SHA1(core.SessionOpenPALImage(der)))
	for _, name := range e.names {
		if err := p.Ledger().CreateAccount(name, openingCents); err != nil {
			return nil, err
		}
	}
	s := &providerSys{env: e, tr: tr, p: p, session: session,
		sess: make([]clientSession, len(e.clients))}
	if !durable {
		return s, nil
	}
	s.backend = newTimedBackend("primary", 100, tr)
	if s.st, err = store.Open(s.backend); err != nil {
		return nil, err
	}
	if err := p.AttachStore(s.st); err != nil {
		return nil, err
	}
	return s, nil
}

// handle round-trips one message through Provider.Handle, timing and
// tracing only the provider's side.
func (s *providerSys) handle(client int, tx int64, name string, msg any) (any, time.Duration, error) {
	req, err := core.EncodeMessage(msg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	raw, err := s.p.Handle(req)
	end := time.Now()
	s.tr.record(name, tx, tx, client, "", start, end)
	if err != nil {
		return nil, 0, err
	}
	resp, err := core.DecodeMessage(raw)
	return resp, end.Sub(start), err
}

// mint times the generator's evidence or MAC minting as a span.
func (s *providerSys) mint(client int, tx int64, start time.Time) {
	s.tr.record("client.mint", tx, tx, client, "", start, time.Now())
}

func (s *providerSys) do(client int, t *core.Transaction, tx int64) (time.Duration, error) {
	var in time.Duration
	cs := &s.sess[client]
	if s.session && (cs.mat == nil || cs.used >= sessionBudget || cs.account != t.From) {
		d, err := s.openSession(client, tx, t.From)
		if err != nil {
			return 0, err
		}
		in += d
	}
	resp, d, err := s.handle(client, tx, "core.submit", &core.SubmitTx{Tx: t})
	if err != nil {
		return 0, err
	}
	in += d
	ch, ok := resp.(*core.Challenge)
	if !ok {
		return 0, fmt.Errorf("submit: got %T, want challenge", resp)
	}

	start := time.Now()
	var answer any
	name := "core.confirm_quote"
	if s.session {
		name = "core.confirm_session"
		counter, mac := cs.mat.ConfirmMAC(ch.Nonce, ch.Tx.Digest(), true)
		answer = &core.ConfirmTxSession{Nonce: ch.Nonce, Confirmed: true,
			SessionID: cs.mat.ID, Counter: counter, MAC: mac}
	} else {
		evidence, err := s.env.clients[client].ConfirmEvidence(ch.Nonce, ch.Tx.Digest(), true)
		if err != nil {
			return 0, err
		}
		answer = &core.ConfirmTx{Nonce: ch.Nonce, Confirmed: true, Mode: core.ModeQuote, Evidence: evidence}
	}
	s.mint(client, tx, start)

	resp, d, err = s.handle(client, tx, name, answer)
	if err != nil {
		return 0, err
	}
	in += d
	out, ok := resp.(*core.Outcome)
	if !ok {
		return 0, fmt.Errorf("confirm: got %T, want outcome", resp)
	}
	if !out.Accepted {
		return 0, fmt.Errorf("confirm refused: %s", out.Reason)
	}
	cs.used++
	return in, nil
}

// openSession establishes a fresh attested session for the account:
// challenge, quote-verified proof, grant.
func (s *providerSys) openSession(client int, tx int64, account string) (time.Duration, error) {
	cs := &s.sess[client]
	cs.nextID++
	sid := uint64(client+1)<<40 | cs.nextID
	c := s.env.clients[client]
	resp, in, err := s.handle(client, tx, "core.session_open", &core.SessionOpen{PlatformID: c.PlatformID, Account: account})
	if err != nil {
		return 0, err
	}
	ch, ok := resp.(*core.SessionChallenge)
	if !ok {
		return 0, fmt.Errorf("session open: got %T, want challenge", resp)
	}
	start := time.Now()
	mat, evidence, err := c.OpenSessionEvidence(ch.Nonce, account, sid, ch.ProviderPubDER, ch.KexPub)
	if err != nil {
		return 0, err
	}
	s.mint(client, tx, start)
	resp, d, err := s.handle(client, tx, "core.session_prove", &core.SessionProve{
		Nonce: ch.Nonce, PlatformID: c.PlatformID, Account: account,
		SessionID: sid, EncKey: mat.EncKey, Evidence: evidence,
	})
	if err != nil {
		return 0, err
	}
	if _, ok := resp.(*core.SessionGrant); !ok {
		return 0, fmt.Errorf("session prove: got %T, want grant", resp)
	}
	*cs = clientSession{mat: mat, account: account, nextID: cs.nextID}
	s.opens.Add(1)
	return in + d, nil
}

func (s *providerSys) counters() counters {
	c := counters{commitSizes: s.p.CommitBatchSizes(), pending: s.p.PendingChallenges(),
		io: map[string]ioTotals{}}
	for _, n := range s.p.Stats().SweptByShard {
		c.swept += n
	}
	if s.backend != nil {
		c.io["primary"] = s.backend.counts.load()
		c.held = s.backend.held()
	}
	return c
}

// check: every applied transaction is in the ledger exactly once and
// nothing else is; every balance equals its opening balance plus the
// applied transfers (so money is conserved); and the audit chain
// replays end to end with one attested record per confirmation.
func (s *providerSys) check(applied []*core.Transaction) error {
	if err := checkLedger(s.p.Ledger(), s.env.names, applied, nil); err != nil {
		return err
	}
	report, err := core.ReplayAudit(s.p.AuditLog().Entries(), s.p.Verifier())
	if err != nil {
		return fmt.Errorf("audit replay: %w", err)
	}
	if s.session {
		if opens := int(s.opens.Load()); report.SessionOpens != opens || report.SessionConfirms != len(applied) {
			return fmt.Errorf("audit holds %d session opens / %d session confirms, want %d / %d",
				report.SessionOpens, report.SessionConfirms, opens, len(applied))
		}
	} else if report.Reverified != len(applied) {
		return fmt.Errorf("audit re-verified %d quote confirmations, want %d", report.Reverified, len(applied))
	}
	return nil
}

func (s *providerSys) close() error {
	if s.st == nil {
		return nil
	}
	err := s.st.Close()
	s.backend.release()
	return err
}

// checkLedger is the exactly-once and conservation gate for one ledger:
// it must hold exactly the transactions for which keep reports true
// (all, when keep is nil), each once, and every account's balance must
// be its opening balance plus those transfers.
func checkLedger(l *core.Ledger, names []string, applied []*core.Transaction, keep func(*core.Transaction) bool) error {
	want := make(map[string]*core.Transaction, len(applied))
	delta := map[string]int64{}
	for _, t := range applied {
		if keep != nil && !keep(t) {
			continue
		}
		want[t.ID] = t
		delta[t.From] -= t.AmountCents
		delta[t.To] += t.AmountCents
	}
	history := l.History()
	if len(history) != len(want) {
		return fmt.Errorf("ledger holds %d transfers, clients saw %d succeed", len(history), len(want))
	}
	seen := make(map[string]bool, len(history))
	for _, t := range history {
		if want[t.ID] == nil {
			return fmt.Errorf("ledger holds unexpected transfer %s", t.ID)
		}
		if seen[t.ID] {
			return fmt.Errorf("transfer %s applied twice", t.ID)
		}
		seen[t.ID] = true
	}
	var total int64
	for _, name := range names {
		bal, err := l.Balance(name)
		if err != nil {
			return err
		}
		if want := openingCents + delta[name]; bal != want {
			return fmt.Errorf("account %s holds %d, want %d", name, bal, want)
		}
		total += bal - openingCents
	}
	if total != 0 {
		return fmt.Errorf("balances changed by %d in total, want 0 (conservation)", total)
	}
	return nil
}
