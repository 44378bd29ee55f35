package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unitp/internal/netsim"
	"unitp/internal/obs"
	"unitp/internal/sim"
)

// echoHandler reflects requests. Payloads must not start with 0x00 (the
// error-frame tag), same rule as the real protocol codec.
func echoHandler(req []byte) ([]byte, error) {
	out := make([]byte, len(req))
	copy(out, req)
	return out, nil
}

// startServer runs a wire server on a loopback listener and returns it
// with its address and a done channel for Serve's return.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string, chan error) {
	t.Helper()
	if cfg.Handler == nil && cfg.Handshake == nil {
		cfg.Handler = echoHandler
	}
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	return srv, ln.Addr().String(), done
}

func newTestClient(addr string, mutate func(*ClientConfig)) *Client {
	cfg := ClientConfig{
		Addr:            addr,
		ResponseTimeout: 5 * time.Second,
		ReconnectMin:    time.Millisecond,
		ReconnectMax:    20 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewClient(cfg)
}

func TestRoundTripOverTCP(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := newTestClient(addr, nil)
	defer c.Close()
	for i := 0; i < 5; i++ {
		req := []byte(fmt.Sprintf("ping-%d", i))
		resp, err := c.RoundTrip(req)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if !bytes.Equal(resp, req) {
			t.Fatalf("round trip %d: got %q want %q", i, resp, req)
		}
	}
}

// TestPipelinedOrdering floods the connection with concurrent round
// trips through a multi-worker server and checks every response matches
// its request — the positional matching discipline end to end.
func TestPipelinedOrdering(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{Workers: 8})
	c := newTestClient(addr, func(cfg *ClientConfig) { cfg.MaxInflight = 128 })
	defer c.Close()

	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := []byte(fmt.Sprintf("req-%03d", i))
			resp, err := c.RoundTrip(req)
			if err != nil {
				errs <- fmt.Errorf("req %d: %w", i, err)
				return
			}
			if !bytes.Equal(resp, req) {
				errs <- fmt.Errorf("req %d: got %q", i, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A handler error (e.g. one corrupted frame) is reported to the peer as
// an error frame and the connection keeps serving — one bad request must
// not tear down the session.
func TestHandlerErrorBecomesRemoteError(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{
		Handler: func(req []byte) ([]byte, error) {
			if string(req) == "x" {
				return nil, errors.New("handler exploded")
			}
			return echoHandler(req)
		},
	})
	c := newTestClient(addr, nil)
	defer c.Close()
	_, err := c.RoundTrip([]byte("x"))
	var remote *netsim.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if remote.Code != netsim.ErrCodeGeneric || remote.Msg != "handler exploded" {
		t.Fatalf("want generic code and the handler's message, got %d %q", remote.Code, remote.Msg)
	}
	if !netsim.DefaultRetryable(err) {
		t.Fatal("generic remote errors must stay retryable")
	}
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if resp, err := c.RoundTrip([]byte("good")); err != nil || string(resp) != "good" {
		t.Fatalf("round trip after an error frame: %q, %v", resp, err)
	}
	c.mu.Lock()
	same := c.conn == conn
	c.mu.Unlock()
	if !same {
		t.Fatal("an error frame cost the connection")
	}
}

func TestPermanentClassification(t *testing.T) {
	fatal := errors.New("cross-shard batch")
	_, addr, _ := startServer(t, ServerConfig{
		Handler: func(req []byte) ([]byte, error) { return nil, fatal },
		Classify: func(err error) uint8 {
			if errors.Is(err, fatal) {
				return netsim.ErrCodePermanent
			}
			return DefaultClassify(err)
		},
	})
	c := newTestClient(addr, nil)
	defer c.Close()
	_, err := c.RoundTrip([]byte("x"))
	var remote *netsim.RemoteError
	if !errors.As(err, &remote) || remote.Code != netsim.ErrCodePermanent {
		t.Fatalf("want permanent remote error, got %v", err)
	}
	if netsim.DefaultRetryable(err) {
		t.Fatal("permanent remote errors must not be retryable")
	}
}

// TestOverloadShed fills the accept pool and checks the next connection
// is refused with a retryable overload error frame.
func TestOverloadShed(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr, _ := startServer(t, ServerConfig{
		Handler: func(req []byte) ([]byte, error) {
			time.Sleep(50 * time.Millisecond)
			return req, nil
		},
		MaxConns: 2,
		Metrics:  reg,
	})

	// Two holders pin the pool (a round trip keeps each conn alive).
	holders := make([]*Client, 2)
	for i := range holders {
		holders[i] = newTestClient(addr, nil)
		defer holders[i].Close()
		if _, err := holders[i].RoundTrip([]byte("hold")); err != nil {
			t.Fatalf("holder %d: %v", i, err)
		}
	}

	extra := newTestClient(addr, nil)
	defer extra.Close()
	_, err := extra.RoundTrip([]byte("shed me"))
	var remote *netsim.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want shed RemoteError, got %v", err)
	}
	if remote.Code != netsim.ErrCodeOverloaded {
		t.Fatalf("want overloaded code, got %d (%s)", remote.Code, remote.Msg)
	}
	if !netsim.DefaultRetryable(err) {
		t.Fatal("shed responses must be retryable")
	}
	if got := reg.Counter("wire.conns_shed").Value(); got != 1 {
		t.Fatalf("wire.conns_shed = %d, want 1", got)
	}
}

func TestPerPeerQuota(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr, _ := startServer(t, ServerConfig{MaxConnsPerPeer: 1, Metrics: reg})

	first := newTestClient(addr, nil)
	defer first.Close()
	if _, err := first.RoundTrip([]byte("one")); err != nil {
		t.Fatalf("first conn: %v", err)
	}

	second := newTestClient(addr, nil)
	defer second.Close()
	_, err := second.RoundTrip([]byte("two"))
	var remote *netsim.RemoteError
	if !errors.As(err, &remote) || remote.Code != netsim.ErrCodeOverloaded {
		t.Fatalf("want quota refusal, got %v", err)
	}
	if got := reg.Counter("wire.conns_rejected_quota").Value(); got != 1 {
		t.Fatalf("wire.conns_rejected_quota = %d, want 1", got)
	}
}

// TestRateLimit freezes the server clock so the token bucket never
// refills: burst passes, the next frame is shed in order.
func TestRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	// The clock is frozen until thawed: the bucket cannot refill, so
	// shedding is deterministic. Real deadlines keep moving underneath
	// (SetReadDeadline uses the wall clock regardless), which is fine —
	// frozen-now deadlines land in the recent past plus the timeout.
	var thawed atomic.Bool
	frozen := time.Now()
	now := func() time.Time {
		if thawed.Load() {
			return time.Now()
		}
		return frozen
	}
	_, addr, _ := startServer(t, ServerConfig{
		PeerFramesPerSec: 1,
		PeerBurst:        3,
		Metrics:          reg,
		Now:              now,
	})

	c := newTestClient(addr, nil)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.RoundTrip([]byte("in-burst")); err != nil {
			t.Fatalf("burst frame %d: %v", i, err)
		}
	}
	_, err := c.RoundTrip([]byte("over"))
	var remote *netsim.RemoteError
	if !errors.As(err, &remote) || remote.Code != netsim.ErrCodeOverloaded {
		t.Fatalf("want rate-limit shed, got %v", err)
	}
	if got := reg.Counter("wire.rate_limited").Value(); got != 1 {
		t.Fatalf("wire.rate_limited = %d, want 1", got)
	}

	// Thaw the clock: the bucket refills and frames pass again.
	thawed.Store(true)
	time.Sleep(1100 * time.Millisecond)
	if _, err := c.RoundTrip([]byte("refilled")); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

// TestGracefulDrain checks Shutdown waits for an in-flight request,
// answers it, and then refuses newcomers with a draining frame.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	srv, addr, done := startServer(t, ServerConfig{
		Handler: func(req []byte) ([]byte, error) {
			if string(req) == "slow" {
				<-release
			}
			return req, nil
		},
		DrainTimeout: 5 * time.Second,
	})

	c := newTestClient(addr, nil)
	defer c.Close()
	slowRes := make(chan error, 1)
	go func() {
		resp, err := c.RoundTrip([]byte("slow"))
		if err == nil && string(resp) != "slow" {
			err = fmt.Errorf("bad drain response %q", resp)
		}
		slowRes <- err
	}()
	// Wait until the slow request is in flight server-side.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		pending := srv.pending
		srv.mu.Unlock()
		if pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never became pending")
		}
		time.Sleep(time.Millisecond)
	}

	shutRes := make(chan error, 1)
	go func() { shutRes <- srv.Shutdown() }()
	time.Sleep(20 * time.Millisecond) // let the drain flag land

	// A newcomer during the drain is refused with a draining frame.
	late := newTestClient(addr, nil)
	defer late.Close()
	if _, err := late.RoundTrip([]byte("late")); err == nil {
		t.Fatal("round trip during drain should fail")
	}

	close(release)
	if err := <-slowRes; err != nil {
		t.Fatalf("in-flight request lost in drain: %v", err)
	}
	if err := <-shutRes; err != nil {
		t.Fatalf("graceful shutdown reported force: %v", err)
	}
	err := <-done
	done <- err // put it back for the startServer cleanup
	if err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
}

// TestDrainDeadlineForces checks a stuck handler cannot hold shutdown
// beyond DrainTimeout.
func TestDrainDeadlineForces(t *testing.T) {
	stuck := make(chan struct{})
	defer close(stuck)
	srv, addr, _ := startServer(t, ServerConfig{
		Handler: func(req []byte) ([]byte, error) {
			<-stuck
			return req, nil
		},
		DrainTimeout: 50 * time.Millisecond,
	})
	c := newTestClient(addr, nil)
	defer c.Close()
	go c.RoundTrip([]byte("wedge"))
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		pending := srv.pending
		srv.mu.Unlock()
		if pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never became pending")
		}
		time.Sleep(time.Millisecond)
	}
	err := srv.Shutdown()
	if err == nil || !errors.Is(err, ErrDraining) {
		t.Fatalf("want forced-drain error, got %v", err)
	}
}

// TestClientFailFastAndReconnect kills the server-side connection with
// a request in flight: the round trip must fail fast (not hang to the
// response timeout), and a later round trip must transparently
// reconnect.
func TestClientFailFastAndReconnect(t *testing.T) {
	var kill atomic.Bool
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				for {
					req, err := netsim.ReadFrame(conn)
					if err != nil {
						return
					}
					if kill.Load() {
						conn.Close() // die with the request in flight
						return
					}
					netsim.WriteFrame(conn, req)
				}
			}(conn)
		}
	}()

	reg := obs.NewRegistry()
	c := newTestClient(ln.Addr().String(), func(cfg *ClientConfig) {
		cfg.Metrics = reg
		cfg.Rng = sim.NewRand(7)
	})
	defer c.Close()

	if _, err := c.RoundTrip([]byte("warmup")); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	kill.Store(true)
	start := time.Now()
	_, err = c.RoundTrip([]byte("doomed"))
	if err == nil {
		t.Fatal("round trip on killed connection should fail")
	}
	if !errors.Is(err, ErrConnDown) {
		t.Fatalf("want ErrConnDown, got %v", err)
	}
	if !netsim.DefaultRetryable(err) {
		t.Fatal("conn-down failures must classify retryable")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fail-fast took %s", elapsed)
	}

	// Reopen the kill switch and retry until the backoff gate lets a
	// redial through.
	kill.Store(false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := c.RoundTrip([]byte("revive")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("wire.client.reconnects").Value(); got < 1 {
		t.Fatalf("wire.client.reconnects = %d, want >= 1", got)
	}
}

// TestRetryTransportMasksShed wraps the wire client in the standard
// retry transport and checks a shed (overloaded) connection heals
// transparently once capacity frees up.
func TestRetryTransportMasksShed(t *testing.T) {
	srv, addr, _ := startServer(t, ServerConfig{MaxConns: 1})

	holder := newTestClient(addr, nil)
	if _, err := holder.RoundTrip([]byte("pin")); err != nil {
		t.Fatalf("holder: %v", err)
	}

	c := newTestClient(addr, nil)
	defer c.Close()
	rt := netsim.NewRetryTransport(c, netsim.RetryPolicy{
		MaxAttempts:    10,
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		AttemptTimeout: time.Second,
	}, sim.WallClock{}, sim.NewRand(11))

	// Release the pinned connection shortly after the retries begin.
	go func() {
		time.Sleep(30 * time.Millisecond)
		holder.Close()
		// Wait for the server to notice the close and free the slot.
		for srv.ActiveConns() > 0 {
			time.Sleep(time.Millisecond)
		}
	}()

	resp, err := rt.RoundTrip([]byte("eventually"))
	if err != nil {
		t.Fatalf("retry transport did not mask the shed: %v", err)
	}
	if string(resp) != "eventually" {
		t.Fatalf("got %q", resp)
	}
}

// TestHandshakeHook runs a hello/ack handshake on both sides and a
// per-connection handler derived from the hello payload.
func TestHandshakeHook(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{
		Handshake: func(conn net.Conn) (netsim.Handler, error) {
			hello, err := netsim.ReadFrame(conn)
			if err != nil {
				return nil, err
			}
			if err := netsim.WriteFrame(conn, append([]byte("ack:"), hello...)); err != nil {
				return nil, err
			}
			tag := string(hello)
			return func(req []byte) ([]byte, error) {
				return []byte(tag + "/" + string(req)), nil
			}, nil
		},
	})

	var ack []byte
	c := newTestClient(addr, func(cfg *ClientConfig) {
		cfg.Handshake = func(conn net.Conn) error {
			if err := netsim.WriteFrame(conn, []byte("alice")); err != nil {
				return err
			}
			frame, err := ReadHandshakeFrame(conn)
			if err != nil {
				return err
			}
			ack = frame
			return nil
		}
	})
	defer c.Close()
	if err := c.Connect(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if string(ack) != "ack:alice" {
		t.Fatalf("handshake ack = %q", ack)
	}
	resp, err := c.RoundTrip([]byte("hi"))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if string(resp) != "alice/hi" {
		t.Fatalf("per-conn handler response = %q", resp)
	}
}

// TestHandshakeRefusalSurfacesRemoteError checks a draining server
// refuses a handshaking client with a classified error frame.
func TestHandshakeRefusalSurfacesRemoteError(t *testing.T) {
	srv, addr, _ := startServer(t, ServerConfig{})
	srv.Shutdown()

	c := newTestClient(addr, func(cfg *ClientConfig) {
		cfg.Handshake = func(conn net.Conn) error {
			if err := netsim.WriteFrame(conn, []byte("hello")); err != nil {
				return err
			}
			_, err := ReadHandshakeFrame(conn)
			return err
		}
	})
	defer c.Close()
	err := c.Connect()
	if err == nil {
		t.Fatal("connect to draining server should fail")
	}
	// Either the dial is refused outright (listener closed) or the
	// handshake reads the draining error frame; both must be retryable.
	var remote *netsim.RemoteError
	if errors.As(err, &remote) {
		if remote.Code != netsim.ErrCodeDraining {
			t.Fatalf("want draining code, got %d", remote.Code)
		}
	} else if !errors.Is(err, ErrConnDown) {
		t.Fatalf("want ErrConnDown or RemoteError, got %v", err)
	}
}

// TestClientClosed checks post-Close round trips fail immediately.
func TestClientClosed(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := newTestClient(addr, nil)
	if _, err := c.RoundTrip([]byte("up")); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	c.Close()
	if _, err := c.RoundTrip([]byte("down")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("want ErrClientClosed, got %v", err)
	}
}

// TestOversizeRequestFailsPermanently checks a request that can never
// fit one frame fails before it is written, with a non-retryable error
// naming the cause, and leaves the connection serving.
func TestOversizeRequestFailsPermanently(t *testing.T) {
	_, addr, _ := startServer(t, ServerConfig{})
	c := newTestClient(addr, nil)
	defer c.Close()
	if _, err := c.RoundTrip([]byte("up")); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	_, err := c.RoundTrip(make([]byte, netsim.MaxFrameSize+1))
	if !errors.Is(err, netsim.ErrFrameTooLarge) {
		t.Fatalf("oversize request: %v, want ErrFrameTooLarge", err)
	}
	if netsim.DefaultRetryable(err) {
		t.Fatalf("oversize request classified retryable: %v", err)
	}
	c.mu.Lock()
	up := c.conn != nil
	c.mu.Unlock()
	if !up {
		t.Fatal("oversize request dropped the connection")
	}
	if resp, err := c.RoundTrip([]byte("still up")); err != nil || string(resp) != "still up" {
		t.Fatalf("round trip after oversize request: %q, %v", resp, err)
	}
}

// TestPipelineBound checks the in-flight cap rejects the overflow
// round trip with a retryable error instead of queueing unboundedly.
func TestPipelineBound(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, addr, _ := startServer(t, ServerConfig{
		Handler: func(req []byte) ([]byte, error) {
			<-release
			return req, nil
		},
	})
	c := newTestClient(addr, func(cfg *ClientConfig) { cfg.MaxInflight = 2 })
	defer c.Close()

	for i := 0; i < 2; i++ {
		go c.RoundTrip([]byte("fill"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.inflight)
		c.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pipeline never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.RoundTrip([]byte("overflow")); !errors.Is(err, ErrPipelineFull) {
		t.Fatalf("want ErrPipelineFull, got %v", err)
	}
}
