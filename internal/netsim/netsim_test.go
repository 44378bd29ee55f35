package netsim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"unitp/internal/sim"
)

func echoHandler(req []byte) ([]byte, error) {
	return append([]byte("re:"), req...), nil
}

func TestPipeRoundTrip(t *testing.T) {
	clock := sim.NewVirtualClock()
	p := NewPipe(Config{Clock: clock, Link: LinkLoopback()}, echoHandler)
	resp, err := p.RoundTrip([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("re:hello")) {
		t.Fatalf("resp = %q", resp)
	}
	if clock.Elapsed() != 0 {
		t.Fatalf("loopback charged %v", clock.Elapsed())
	}
}

func TestPipeChargesLatency(t *testing.T) {
	clock := sim.NewVirtualClock()
	link := Link{Name: "fixed", Latency: 40 * time.Millisecond} // no jitter
	p := NewPipe(Config{Clock: clock, Link: link}, echoHandler)
	if _, err := p.RoundTrip([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Elapsed(), 80*time.Millisecond; got != want {
		t.Fatalf("round trip charged %v, want %v", got, want)
	}
}

func TestPipeJitterVariesDelay(t *testing.T) {
	clock := sim.NewVirtualClock()
	p := NewPipe(Config{
		Clock:  clock,
		Random: sim.NewRand(11),
		Link:   Link{Name: "j", Latency: 50 * time.Millisecond, Jitter: 10 * time.Millisecond},
	}, echoHandler)
	var delays []time.Duration
	prev := clock.Elapsed()
	for i := 0; i < 10; i++ {
		if _, err := p.RoundTrip([]byte("x")); err != nil {
			t.Fatal(err)
		}
		now := clock.Elapsed()
		delays = append(delays, now-prev)
		prev = now
	}
	allEqual := true
	for _, d := range delays[1:] {
		if d != delays[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("jitter produced identical delays")
	}
}

func TestPipeHandlesLossWithRetry(t *testing.T) {
	clock := sim.NewVirtualClock()
	p := NewPipe(Config{
		Clock:  clock,
		Random: sim.NewRand(13),
		Link:   Link{Name: "lossy", Latency: time.Millisecond, LossProb: 0.3},
		// generous retries: must eventually succeed
		Retry: &RetryPolicy{MaxAttempts: 51},
	}, echoHandler)
	for i := 0; i < 50; i++ {
		if _, err := p.RoundTrip([]byte("x")); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
	}
	sent, lost := p.Stats()
	if lost == 0 {
		t.Fatal("30% loss produced zero losses in 50+ round trips")
	}
	if sent <= 50 {
		t.Fatalf("sent = %d, expected retransmissions", sent)
	}
}

func TestPipeTimesOutOnTotalLoss(t *testing.T) {
	clock := sim.NewVirtualClock()
	p := NewPipe(Config{
		Clock:  clock,
		Random: sim.NewRand(17),
		Link:   Link{Name: "dead", LossProb: 1.0},
		Retry:  &RetryPolicy{MaxAttempts: 3, AttemptTimeout: time.Second},
	}, echoHandler)
	_, err := p.RoundTrip([]byte("x"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("total loss: %v", err)
	}
	// 3 attempts * 1s timeout each.
	if got := clock.Elapsed(); got != 3*time.Second {
		t.Fatalf("charged %v, want 3s", got)
	}
}

func TestPipePropagatesHandlerError(t *testing.T) {
	sentinel := errors.New("server error")
	p := NewPipe(Config{Link: LinkLoopback()}, func([]byte) ([]byte, error) {
		return nil, sentinel
	})
	if _, err := p.RoundTrip([]byte("x")); !errors.Is(err, sentinel) {
		t.Fatalf("handler error: %v", err)
	}
}

func TestLinkProfiles(t *testing.T) {
	links := Links()
	if len(links) != 5 {
		t.Fatalf("links = %d", len(links))
	}
	// Ordering: each successive profile is slower.
	for i := 1; i < len(links); i++ {
		if links[i].Latency < links[i-1].Latency {
			t.Fatalf("link %s faster than %s", links[i].Name, links[i-1].Name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("frame payload")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q", got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("frame = %v", got)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	// Hostile header claiming a huge frame.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile header: %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(data[:6])); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(data[:2])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestErrorFrameCodec(t *testing.T) {
	frame := EncodeErrorFrame(errors.New("decode failed"))
	msg, isErr := DecodeErrorFrame(frame)
	if !isErr || msg != "decode failed" {
		t.Fatalf("decoded (%q, %v)", msg, isErr)
	}
	if _, isErr := DecodeErrorFrame([]byte{1, 2, 3}); isErr {
		t.Fatal("protocol frame misread as error frame")
	}
	if _, isErr := DecodeErrorFrame(nil); isErr {
		t.Fatal("empty frame misread as error frame")
	}
	if msg, _ := DecodeErrorFrame(EncodeErrorFrame(nil)); msg != "unknown error" {
		t.Fatalf("nil error frame = %q", msg)
	}
}

func TestPipeStatsConcurrentWithRoundTrips(t *testing.T) {
	// Regression for the data race on the pipe counters: Stats() while
	// RoundTrip mutates them must be race-clean (run with -race).
	p := NewPipe(Config{Link: LinkLoopback()}, echoHandler)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := p.RoundTrip([]byte("x")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		p.Stats()
		p.FaultStats()
	}
	<-done
	if sent, _ := p.Stats(); sent != 200 {
		t.Fatalf("sent = %d", sent)
	}
}

// scriptedInjector replays a fixed sequence of actions on request
// traversals and delivers responses untouched.
type scriptedInjector struct {
	mu      sync.Mutex
	actions []Action
	mutate  func([]byte) []byte
}

func (s *scriptedInjector) Inject(dir Direction, payload []byte) ([]byte, Action) {
	if dir != DirRequest {
		return payload, Action{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.actions) == 0 {
		return payload, Action{}
	}
	act := s.actions[0]
	s.actions = s.actions[1:]
	if act.Corrupt && s.mutate != nil {
		payload = s.mutate(append([]byte(nil), payload...))
	}
	return payload, act
}

func TestPipeInjectedDropIsRetried(t *testing.T) {
	clock := sim.NewVirtualClock()
	p := NewPipe(Config{
		Clock:  clock,
		Link:   LinkLoopback(),
		Faults: &scriptedInjector{actions: []Action{{Drop: true}}},
	}, echoHandler)
	resp, err := p.RoundTrip([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("re:x")) {
		t.Fatalf("resp = %q", resp)
	}
	st := p.FaultStats()
	if st.Lost != 1 || st.Sent != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPipeInjectedDuplicateHitsHandlerTwice(t *testing.T) {
	var calls int
	p := NewPipe(Config{
		Link:   LinkLoopback(),
		Faults: &scriptedInjector{actions: []Action{{Duplicate: true}}},
	}, func(req []byte) ([]byte, error) {
		calls++
		return echoHandler(req)
	})
	if _, err := p.RoundTrip([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("handler calls = %d", calls)
	}
	if st := p.FaultStats(); st.Duplicated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPipeInjectedCorruptionIsRetryable(t *testing.T) {
	// A corrupted request makes the handler fail; the pipe must treat
	// that as transient and retransmit the intact original.
	inj := &scriptedInjector{
		actions: []Action{{Corrupt: true}},
		mutate:  func(p []byte) []byte { p[0] ^= 0xFF; return p },
	}
	p := NewPipe(Config{Link: LinkLoopback(), Faults: inj}, func(req []byte) ([]byte, error) {
		if req[0] != 'x' {
			return nil, errors.New("cannot parse")
		}
		return echoHandler(req)
	})
	resp, err := p.RoundTrip([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("re:x")) {
		t.Fatalf("resp = %q", resp)
	}
	if st := p.FaultStats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPipeInjectedResetSurfacesAndRetries(t *testing.T) {
	p := NewPipe(Config{
		Link:   LinkLoopback(),
		Retry:  &RetryPolicy{MaxAttempts: 1},
		Faults: &scriptedInjector{actions: []Action{{Reset: true}}},
	}, echoHandler)
	if _, err := p.RoundTrip([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("reset: %v", err)
	}
}

func TestPipeReorderDeliversStaleFrameLater(t *testing.T) {
	var seen [][]byte
	p := NewPipe(Config{
		Link: LinkLoopback(),
		Faults: &scriptedInjector{
			actions: []Action{{Reorder: true}, {Reorder: true}},
		},
	}, func(req []byte) ([]byte, error) {
		seen = append(seen, append([]byte(nil), req...))
		return echoHandler(req)
	})
	// First frame gets held (times out, retransmitted clean). Second
	// frame swaps with the held copy: the handler sees the stale "a".
	if _, err := p.RoundTrip([]byte("a")); err != nil {
		t.Fatal(err)
	}
	resp, err := p.RoundTrip([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 || !bytes.Equal(seen[len(seen)-1], []byte("b")) {
		// The reordered attempt delivered "a" out of order at some
		// point; the retried clean attempt delivered "b" last.
		t.Fatalf("handler saw %q (resp %q)", seen, resp)
	}
	if st := p.FaultStats(); st.Reordered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryPolicyBackoffChargedToClock(t *testing.T) {
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(7)
	rp := RetryPolicy{
		MaxAttempts:    3,
		InitialBackoff: 100 * time.Millisecond,
		Multiplier:     2,
		AttemptTimeout: time.Second,
	}
	fails := 0
	_, err := rp.Run(clock, rng, func() ([]byte, error) {
		fails++
		return nil, ErrTimeout
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if fails != 3 {
		t.Fatalf("attempts = %d", fails)
	}
	// Two backoffs: 100ms + 200ms (no jitter configured).
	if got, want := clock.Elapsed(), 300*time.Millisecond; got != want {
		t.Fatalf("backoff charged %v, want %v", got, want)
	}
}

func TestRetryPolicyDeadline(t *testing.T) {
	clock := sim.NewVirtualClock()
	rp := RetryPolicy{
		MaxAttempts:    100,
		InitialBackoff: time.Second,
		Multiplier:     1,
		MaxBackoff:     time.Second,
		Deadline:       2500 * time.Millisecond,
	}
	_, err := rp.Run(clock, sim.NewRand(1), func() ([]byte, error) {
		return nil, ErrTimeout
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	if clock.Elapsed() > 2500*time.Millisecond {
		t.Fatalf("slept past deadline: %v", clock.Elapsed())
	}
}

func TestRetryPolicyFatalErrorImmediate(t *testing.T) {
	fatal := errors.New("schema violation")
	calls := 0
	_, err := RetryPolicy{MaxAttempts: 5}.Run(sim.NewVirtualClock(), sim.NewRand(1), func() ([]byte, error) {
		calls++
		return nil, fatal
	})
	if !errors.Is(err, fatal) || calls != 1 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}
}

func TestDefaultRetryableClassification(t *testing.T) {
	for _, err := range []error{ErrTimeout, ErrReset, ErrCorruptFrame, &RemoteError{Msg: "x"}} {
		if !DefaultRetryable(err) {
			t.Fatalf("%v should be retryable", err)
		}
	}
	if DefaultRetryable(errors.New("logic bug")) {
		t.Fatal("arbitrary error should be fatal")
	}
}

func TestRetryTransportMasksTransientFailures(t *testing.T) {
	fails := 2
	inner := transportFunc(func(req []byte) ([]byte, error) {
		if fails > 0 {
			fails--
			return nil, ErrTimeout
		}
		return echoHandler(req)
	})
	tr := NewRetryTransport(inner, RetryPolicy{MaxAttempts: 4}, sim.NewVirtualClock(), sim.NewRand(3))
	resp, err := tr.RoundTrip([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("re:x")) {
		t.Fatalf("resp = %q", resp)
	}
}

// transportFunc adapts a function to Transport.
type transportFunc func(req []byte) ([]byte, error)

func (f transportFunc) RoundTrip(req []byte) ([]byte, error) { return f(req) }
