package unitp_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"unitp"
	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/flicker"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/tpm"
	"unitp/internal/wire"
)

// tcpFixture runs a provider behind a wire.Server on a real TCP
// listener and builds a client machine connected to it through a
// wire.Client — the full stack the cmd/ tools use, inside one test
// process.
type tcpFixture struct {
	provider *core.Provider
	client   *core.Client
	machine  *platform.Machine
}

func newTCPFixture(t *testing.T) *tcpFixture {
	t.Helper()
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(0x7C9)

	caKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	ca := attest.NewPrivacyCA("tcp-test-ca", caKey, clock, rng.Fork("ca"))
	provKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	provider := core.NewProvider(core.ProviderConfig{
		Name: "tcp-test", CAPub: ca.PublicKey(), Key: provKey,
		Clock: clock, Random: rng.Fork("provider"),
	})
	provider.Verifier().ApprovePAL(core.ConfirmPALName, cryptoutil.SHA1(core.ConfirmPALImage()))
	provider.Verifier().ApprovePAL(core.PINPALName, cryptoutil.SHA1(core.PINPALImage()))
	if err := provider.Ledger().CreateAccount("alice", 100_000); err != nil {
		t.Fatal(err)
	}
	if err := provider.Ledger().CreateAccount("bob", 0); err != nil {
		t.Fatal(err)
	}
	if err := provider.EnrollCredential("alice", "2468"); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(wire.ServerConfig{Handler: provider.Handle})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-served
	})

	machine, err := platform.New(platform.Config{Clock: clock, Random: rng.Fork("machine")})
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.EnrollEK("tcp-client", machine.TPM().EK()); err != nil {
		t.Fatal(err)
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.CertifyAIK("tcp-client", machine.TPM().EK(), aikPub)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewClient(wire.ClientConfig{Addr: ln.Addr().String()})
	t.Cleanup(func() { conn.Close() })
	client, err := core.NewClient(core.ClientConfig{
		Manager:   flicker.NewManager(machine),
		Transport: conn,
		AIK:       aik,
		Cert:      cert,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &tcpFixture{provider: provider, client: client, machine: machine}
}

func TestFullStackOverRealTCP(t *testing.T) {
	f := newTCPFixture(t)

	// One confirmed transaction.
	pressed := false
	f.machine.SetInputPump(func() bool {
		if pressed {
			return false
		}
		pressed = true
		f.machine.Keyboard().Press('y')
		return true
	})
	tx := &core.Transaction{ID: "tcp-1", From: "alice", To: "bob",
		AmountCents: 4_200, Currency: "EUR"}
	outcome, err := f.client.SubmitTransaction(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || !outcome.Authentic {
		t.Fatalf("outcome = %+v", outcome)
	}
	if bal, _ := f.provider.Ledger().Balance("bob"); bal != 4_200 {
		t.Fatalf("bob = %d", bal)
	}

	// A login over the same connection.
	answered := false
	f.machine.SetInputPump(func() bool {
		if answered {
			return false
		}
		answered = true
		for _, r := range "2468" {
			f.machine.Keyboard().Press(r)
		}
		f.machine.Keyboard().Press('\n')
		return true
	})
	outcome, err = f.client.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.Accepted || outcome.Token == "" {
		t.Fatalf("login outcome = %+v", outcome)
	}
}

func TestProviderConcurrentHandle(t *testing.T) {
	// Many goroutines hammer one provider engine with auto-accept
	// submissions; the ledger must stay consistent (run with -race to
	// exercise the locking).
	clock := sim.NewVirtualClock()
	rng := unitp.NewRand(77)
	caKey, err := tpm.PooledKeySource().Next()
	if err != nil {
		t.Fatal(err)
	}
	ca := attest.NewPrivacyCA("conc-ca", caKey, clock, rng.Fork("ca"))
	provider := core.NewProvider(core.ProviderConfig{
		Name: "conc", CAPub: ca.PublicKey(),
		Clock: clock, Random: rng.Fork("p"),
		ConfirmThresholdCents: 1 << 40, // auto-accept: pure engine path
	})
	const workers, perWorker = 8, 50
	if err := provider.Ledger().CreateAccount("sink", 0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if err := provider.Ledger().CreateAccount(fmt.Sprintf("src-%d", w), perWorker); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				payload, err := core.EncodeMessage(&core.SubmitTx{Tx: &core.Transaction{
					ID:   fmt.Sprintf("c-%d-%d", w, i),
					From: fmt.Sprintf("src-%d", w), To: "sink",
					AmountCents: 1, Currency: "EUR",
				}})
				if err != nil {
					errs <- err
					return
				}
				respBytes, err := provider.Handle(payload)
				if err != nil {
					errs <- err
					return
				}
				resp, err := core.DecodeMessage(respBytes)
				if err != nil {
					errs <- err
					return
				}
				if !resp.(*core.Outcome).Accepted {
					errs <- fmt.Errorf("rejected: %+v", resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	bal, err := provider.Ledger().Balance("sink")
	if err != nil {
		t.Fatal(err)
	}
	if bal != workers*perWorker {
		t.Fatalf("sink = %d, want %d", bal, workers*perWorker)
	}
	if st := provider.Stats(); st.AutoAccepted != workers*perWorker {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLossyLinkEndToEnd(t *testing.T) {
	// A 5%-lossy WAN path: the transport retries and the protocol
	// still completes (nonces are single-use but a round trip is
	// atomic in this model — loss costs time, not correctness).
	d, err := unitp.NewDeployment(unitp.DeploymentConfig{
		Seed: 91,
		Link: unitp.Link{Name: "flaky", Latency: 40e6, Jitter: 5e6, LossProb: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	user := unitp.DefaultUser(d.Rng.Fork("user"))
	stream := unitp.NewTxStream(d.Rng.Fork("txs"), unitp.TxStreamConfig{From: "alice", MaxCents: 600})
	for i := 0; i < 10; i++ {
		tx, _ := stream.Next()
		user.Intend(tx)
		user.AttachTo(d.Machine)
		outcome, err := d.Client.SubmitTransaction(tx)
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if !outcome.Accepted {
			t.Fatalf("tx %d rejected: %s", i, outcome.Reason)
		}
	}
	sent, lost := d.Pipe.Stats()
	if lost == 0 {
		t.Logf("note: no losses sampled in %d messages", sent)
	}
}
