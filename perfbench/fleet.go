package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"unitp/internal/core"
	"unitp/internal/store"
	"unitp/internal/wire"
	"unitp/internal/workload"
)

// micropayThresholdCents is the fleet's confirmation threshold; every
// micropayment is below it, so it is auto-accepted without a challenge.
const micropayThresholdCents = 1000

// wireWorkers is the server's per-connection worker pool (tpserver's
// default).
const wireWorkers = 4

// fleetSys is workload.NewFleet's router behind a wire.Server, driven
// by one wire.Client over an in-process pipe (see pipe.go).
type fleetSys struct {
	env      *env
	tr       *tracer
	d        *workload.FleetDeployment
	backends []*timedBackend

	srv    *wire.Server
	served chan error
	cli    *wire.Client

	// The client's in-flight round trip, for the server-side span's
	// parent. One client with one request in flight makes this exact.
	curRT, curTx atomic.Int64
	wireBytes    atomic.Int64
}

// fleetBank is the fleet's opening balances: every account of names.
func fleetBank(names []string) map[string]int64 {
	bank := make(map[string]int64, len(names))
	for _, n := range names {
		bank[n] = openingCents
	}
	return bank
}

// buildFleet is the fleet set-up: two shards, each a primary and one
// follower with synchronous WAL shipping, every store on a timed
// backend, followers bootstrapped, and the server and client
// connection up.
func buildFleet(e *env, tr *tracer) (system, error) {
	s := &fleetSys{env: e, tr: tr, served: make(chan error, 1)}
	d, err := workload.NewFleet(workload.FleetConfig{
		Seed:                  uint64(e.seed),
		Shards:                2,
		Followers:             1,
		ConfirmThresholdCents: micropayThresholdCents,
		Accounts:              fleetBank(e.names),
		NewBackend: func(shard int, role string) (store.Backend, error) {
			b := newTimedBackend(roleGroup(role), 100+len(s.backends), tr)
			s.backends = append(s.backends, b)
			return b, nil
		},
	})
	if err != nil {
		return nil, err
	}
	s.d = d
	s.srv = wire.NewServer(wire.ServerConfig{Handler: s.serve, Workers: wireWorkers})
	ln := newPipeListener()
	go func() { s.served <- s.srv.Serve(ln) }()
	s.cli = wire.NewClient(wire.ClientConfig{Dial: ln.dial})
	if err := s.cli.Connect(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve is the server's handler: the fleet router, timed.
func (s *fleetSys) serve(req []byte) ([]byte, error) {
	start := time.Now()
	resp, err := s.d.Router.Handle(req)
	s.tr.record("fleet.router", s.curRT.Load(), s.curTx.Load(), 50, "", start, time.Now())
	return resp, err
}

func (s *fleetSys) do(client int, t *core.Transaction, tx int64) (time.Duration, error) {
	req, err := core.EncodeMessage(&core.SubmitTx{Tx: t})
	if err != nil {
		return 0, err
	}
	rt := s.tr.newID()
	s.curRT.Store(rt)
	s.curTx.Store(tx)
	start := time.Now()
	raw, err := s.cli.RoundTrip(req)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	s.tr.add(span{name: "wire.round_trip", id: rt, parent: tx, tx: tx, track: client,
		start: s.tr.since(start), end: s.tr.since(end)})
	s.wireBytes.Add(int64(len(req) + len(raw)))
	resp, err := core.DecodeMessage(raw)
	if err != nil {
		return 0, err
	}
	out, ok := resp.(*core.Outcome)
	if !ok {
		return 0, fmt.Errorf("submit: got %T, want outcome", resp)
	}
	if !out.Accepted {
		return 0, fmt.Errorf("submit refused: %s", out.Reason)
	}
	return end.Sub(start), nil
}

func (s *fleetSys) counters() counters {
	c := counters{io: map[string]ioTotals{}, wireBytes: s.wireBytes.Load()}
	for _, b := range s.backends {
		c.io[b.group] = c.io[b.group].plus(b.counts.load())
		c.held += b.held()
	}
	return c
}

// check: per shard, the primary's ledger holds exactly the applied
// transfers whose sender the ring places there, each once, with every
// balance (and so the shard's total) accounted for; and every
// follower's applied offset equals its primary's replication frontier.
func (s *fleetSys) check(applied []*core.Transaction) error {
	r := s.d.Router
	for i, shard := range r.Shards() {
		onShard := func(t *core.Transaction) bool { return r.ShardFor(t.From) == i }
		if err := checkLedger(shard.Primary().Ledger(), s.env.names, applied, onShard); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		links := shard.LinkHealth()
		if len(links) == 0 {
			return fmt.Errorf("shard %d: no replication links", i)
		}
		frontier := links[0].Acked + links[0].Lag
		for _, l := range links {
			if l.Lag != 0 {
				return fmt.Errorf("shard %d: follower %d lags the primary by %d groups", i, l.Member, l.Lag)
			}
		}
		for j, off := range shard.FollowerApplied() {
			if off != frontier {
				return fmt.Errorf("shard %d: follower %d applied offset %d, primary at %d", i, j, off, frontier)
			}
		}
	}
	return nil
}

func (s *fleetSys) close() error {
	var errs []error
	if s.cli != nil {
		errs = append(errs, s.cli.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown())
		if err := <-s.served; err != nil {
			errs = append(errs, err)
		}
	}
	if s.d != nil {
		for _, shard := range s.d.Router.Shards() {
			if st := shard.Primary().Store(); st != nil {
				errs = append(errs, st.Close())
			}
		}
	}
	for _, b := range s.backends {
		b.release()
	}
	return errors.Join(errs...)
}

// probeFleetBootstrap tries, once per invocation and outside every
// timed round, to build the fleet over the single-provider 100k-account
// bank, and prints the outcome. It fails today: a follower's bootstrap
// frame carries the primary's snapshot as one length-prefixed field,
// capped at 1 MiB, and that bank's snapshot is larger. Printing it
// keeps the defect visible until micropay-fleet can use the full bank.
func probeFleetBootstrap(e *env) error {
	if err := e.warmFleetKeys(); err != nil {
		return err
	}
	_, err := workload.NewFleet(workload.FleetConfig{
		Seed:                  uint64(e.seed),
		Shards:                2,
		Followers:             1,
		ConfirmThresholdCents: micropayThresholdCents,
		Accounts:              fleetBank(accountNames(bankAccounts)),
	})
	e.probeOutcome = "ok"
	if err != nil {
		e.probeOutcome = err.Error()
	}
	fmt.Printf("fleet bootstrap probe (%d accounts, 2 shards x 1 follower): %s\n", bankAccounts, e.probeOutcome)
	return nil
}
