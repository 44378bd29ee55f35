// Command tpclient runs the client side of the uni-directional trusted
// path over real TCP against cmd/tpserver: it boots a simulated
// DRTM-capable machine, enrolls with the server's CA, submits a
// transaction, and drives the confirmation PAL — with you as the human,
// or with a scripted decision.
//
// The connection is supervised by internal/wire: if the server resets,
// drains, or sheds the connection, in-flight requests fail fast with
// retryable errors, the retry transport backs off, and the supervisor
// redials (re-running the idempotent enrollment handshake) under capped
// exponential backoff with jitter.
//
// Usage:
//
//	tpclient -server localhost:7700 -to bob -amount 12300 -decision ask
package main

import (
	"bufio"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"unitp/internal/attest"
	"unitp/internal/core"
	"unitp/internal/cryptoutil"
	"unitp/internal/flicker"
	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/platform"
	"unitp/internal/sim"
	"unitp/internal/tpm"
	"unitp/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("tpclient: %v", err)
	}
}

func run() error {
	var (
		server   = flag.String("server", "localhost:7700", "tpserver address")
		to       = flag.String("to", "bob", "payee account")
		amount   = flag.Int64("amount", 12_300, "amount in cents")
		decision = flag.String("decision", "ask", "confirmation decision: y, n, or ask (interactive)")
		vendor   = flag.String("tpm", "Infineon", "TPM vendor profile (Ideal, Infineon, STMicro, Atmel, Broadcom)")
		presence = flag.Bool("presence", false, "run the human-presence (captcha replacement) flow instead")
		login    = flag.String("login", "", "run the secure PIN login flow for this username instead")
		pin      = flag.String("pin", "2468", "PIN typed at the trusted prompt (login flow, scripted mode)")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of this run's sessions to this file (load in Perfetto)")
	)
	flag.Parse()

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(64)
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Printf("tpclient: trace: %v", err)
				return
			}
			defer f.Close()
			if err := obs.WriteChromeTrace(f, tracer.Completed(0)); err != nil {
				log.Printf("tpclient: trace: %v", err)
				return
			}
			log.Printf("tpclient: wrote trace to %s (%d sessions)", *traceOut, len(tracer.Completed(0)))
		}()
	}

	profile, err := profileByName(*vendor)
	if err != nil {
		return err
	}
	// Wall clock: the modelled TPM latencies are actually felt, so the
	// demo conveys the paper's timing story. The EK and AIK are fresh
	// keys: the simulation key pool is public.
	machine, err := platform.New(platform.Config{
		Clock:      sim.WallClock{},
		Random:     sim.NewRand(uint64(time.Now().UnixNano())),
		TPMProfile: profile,
		Keys:       tpm.FreshKeySource(rand.Reader, cryptoutil.DefaultRSABits),
	})
	if err != nil {
		return err
	}
	aik, aikPub, err := machine.TPM().CreateAIK()
	if err != nil {
		return err
	}

	// The supervised connection re-runs this handshake on every
	// (re)dial; the platform ID is stable for the process, so the server
	// treats a reconnect as the same enrolled device (idempotent enroll,
	// same-EK certify).
	platformID := fmt.Sprintf("platform-%d", os.Getpid())
	var cert *attest.AIKCert
	registry := obs.NewRegistry()
	defer func() {
		// Surface what supervision had to do: silence means a clean run.
		snap := registry.Snapshot()
		if snap.Counters["wire.client.conn_failures"]+snap.Counters["wire.client.dial_failures"] > 0 {
			log.Printf("tpclient: supervision: reconnects=%d conn_failures=%d dial_failures=%d handshake_failures=%d",
				snap.Counters["wire.client.reconnects"], snap.Counters["wire.client.conn_failures"],
				snap.Counters["wire.client.dial_failures"], snap.Counters["wire.client.handshake_failures"])
		}
	}()
	supervised := wire.NewClient(wire.ClientConfig{
		Addr:    *server,
		Metrics: registry,
		Handshake: func(conn net.Conn) error {
			c, err := enroll(conn, platformID, machine, aikPub)
			if err != nil {
				return err
			}
			cert = c
			return nil
		},
	})
	defer supervised.Close()
	if err := supervised.Connect(); err != nil {
		return err
	}
	log.Printf("tpclient: enrolled as %s with CA %s", cert.PlatformID, cert.Issuer)

	// Real TCP still loses frames and drops connections; the retry
	// transport masks transient failures with backoff and a deadline,
	// while the wire supervisor paces the redials underneath.
	transport := netsim.NewRetryTransport(supervised,
		netsim.DefaultRetryPolicy(), sim.WallClock{}, sim.NewRand(uint64(time.Now().UnixNano())^0x7e7))
	transport.Observe(nil, tracer)
	client, err := core.NewClient(core.ClientConfig{
		Manager:   flicker.NewManager(machine),
		Transport: transport,
		AIK:       aik,
		Cert:      cert,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}

	machine.SetInputPump(humanPump(machine, *decision))

	if *login != "" {
		machine.SetInputPump(pinPump(machine, *pin))
		outcome, err := client.Login(*login)
		if err != nil {
			return err
		}
		log.Printf("tpclient: login outcome: accepted=%v token=%s reason=%s",
			outcome.Accepted, outcome.Token, outcome.Reason)
		return nil
	}

	if *presence {
		outcome, err := client.ProveHumanPresence()
		if err != nil {
			return err
		}
		log.Printf("tpclient: presence outcome: accepted=%v token=%s reason=%s",
			outcome.Accepted, outcome.Token, outcome.Reason)
		return nil
	}

	tx := &core.Transaction{
		ID:          fmt.Sprintf("cli-%d", time.Now().Unix()),
		From:        "alice",
		To:          *to,
		AmountCents: *amount,
		Currency:    "EUR",
		Memo:        "tpclient demo",
	}
	log.Printf("tpclient: submitting %s", tx.Summary())
	start := time.Now()
	outcome, err := client.SubmitTransaction(tx)
	if err != nil {
		return err
	}
	log.Printf("tpclient: outcome: accepted=%v authentic=%v reason=%q (%v end to end)",
		outcome.Accepted, outcome.Authentic, outcome.Reason, time.Since(start).Round(time.Millisecond))
	return nil
}

// enroll performs the demo enrollment handshake with tpserver. A server
// refusal (shed, draining) arrives as an error frame, which
// ReadHandshakeFrame surfaces as a classified RemoteError so the
// supervisor treats it like any other transient failure.
func enroll(conn net.Conn, platformID string, machine *platform.Machine, aikPub *rsa.PublicKey) (*attest.AIKCert, error) {
	b := cryptoutil.NewBuffer(600)
	b.PutString(platformID)
	b.PutBytes(x509.MarshalPKCS1PublicKey(machine.TPM().EK()))
	b.PutBytes(x509.MarshalPKCS1PublicKey(aikPub))
	if err := netsim.WriteFrame(conn, b.Bytes()); err != nil {
		return nil, err
	}
	certBytes, err := wire.ReadHandshakeFrame(conn)
	if err != nil {
		return nil, err
	}
	return attest.UnmarshalAIKCert(certBytes)
}

// humanPump builds the PAL's input source: scripted y/n or the actual
// human at this terminal.
func humanPump(machine *platform.Machine, decision string) platform.InputPump {
	answered := false
	return func() bool {
		if answered {
			return false
		}
		answered = true
		switch decision {
		case "y", "n":
			machine.Keyboard().Press(rune(decision[0]))
			return true
		default:
			lines := machine.Display().Lines()
			if len(lines) > 0 {
				fmt.Printf("\n┌─ TRUSTED DISPLAY "+strings.Repeat("─", 40)+"\n│ %s\n└%s\n",
					lines[len(lines)-1].Text, strings.Repeat("─", 58))
			}
			fmt.Print("confirm? [y/n]: ")
			reader := bufio.NewReader(os.Stdin)
			line, err := reader.ReadString('\n')
			if err != nil || len(strings.TrimSpace(line)) == 0 {
				return false
			}
			machine.Keyboard().Press(rune(strings.TrimSpace(line)[0]))
			return true
		}
	}
}

// pinPump types a scripted PIN at the trusted prompt.
func pinPump(machine *platform.Machine, pin string) platform.InputPump {
	answered := false
	return func() bool {
		if answered {
			return false
		}
		answered = true
		for _, r := range pin {
			machine.Keyboard().Press(r)
		}
		machine.Keyboard().Press('\n')
		return true
	}
}

func profileByName(name string) (tpm.Profile, error) {
	for _, p := range append(tpm.VendorProfiles(), tpm.ProfileIdeal()) {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return tpm.Profile{}, fmt.Errorf("unknown TPM profile %q", name)
}
