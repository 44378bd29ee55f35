// Package netsim provides the network substrate between clients and
// service providers: an in-memory request/response transport with
// modelled latency, jitter, and loss charged to the simulation clock,
// plus a length-prefixed, checksummed frame codec for running the same
// protocol over real TCP connections (internal/wire, cmd/tpserver,
// cmd/tpclient).
//
// The transport exposes two fault-handling layers. An Injector hook
// (implemented by internal/faults) decides the fate of each message
// traversal — drop, duplicate, reorder, corrupt, delay, or reset — so
// chaos experiments can subject the protocol to adversarial network
// conditions without touching call sites. A RetryPolicy governs how the
// sender reacts: exponential backoff with jitter, per-attempt timeout
// charging, an overall deadline, and classification of retryable vs.
// fatal errors.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"unitp/internal/obs"
	"unitp/internal/sim"
)

// Transport errors.
var (
	// ErrTimeout is returned when a message (or its response) is lost
	// and the sender's per-attempt timer expires.
	ErrTimeout = errors.New("netsim: request timed out")

	// ErrReset is returned when the connection is reset mid round trip.
	ErrReset = errors.New("netsim: connection reset")

	// ErrCorruptFrame is returned when a frame was damaged in flight and
	// the peer could not parse it.
	ErrCorruptFrame = errors.New("netsim: frame corrupted in flight")

	// ErrDeadline is returned when a retry sequence exhausts its overall
	// deadline before any attempt succeeds.
	ErrDeadline = errors.New("netsim: retry deadline exceeded")

	// ErrFrameTooLarge is returned for frames above MaxFrameSize.
	ErrFrameTooLarge = errors.New("netsim: frame exceeds maximum size")
)

// RemoteError is a handler-side error reported back to the sender as an
// error frame instead of tearing down the connection (see Serve).
type RemoteError struct {
	// Msg is the peer's error text.
	Msg string

	// Code classifies the error for the sender's retry machinery (one
	// of the ErrCode* constants). The zero value, ErrCodeGeneric, keeps
	// the historical semantics: retryable, because a corrupted-in-flight
	// request is indistinguishable from a bad request at the sender.
	Code uint8
}

// Error implements error.
func (e *RemoteError) Error() string { return "netsim: remote error: " + e.Msg }

// Error-frame codes. They ride inside the error frame so a real wire
// transport (internal/wire) can tell the sender *why* a request was
// refused without tearing down the connection, and the sender's
// RetryPolicy can react: back off and retry (overload shed, drain), or
// stop immediately (permanent refusal).
const (
	// ErrCodeGeneric is a handler error with no further classification
	// (retryable: the request may have been corrupted in flight).
	ErrCodeGeneric uint8 = 0

	// ErrCodeOverloaded marks a request or connection shed by an
	// overloaded server; the sender should back off and retry.
	ErrCodeOverloaded uint8 = 1

	// ErrCodeDraining marks a server in graceful shutdown; the sender
	// should reconnect (elsewhere, or later).
	ErrCodeDraining uint8 = 2

	// ErrCodePermanent marks a request the server definitively refused
	// (e.g. a cross-shard batch); retrying cannot succeed.
	ErrCodePermanent uint8 = 3

	// ErrCodeFenced marks a frame refused at the socket edge because the
	// sender's epoch is stale: the peer serves a newer lineage. Fatal —
	// retransmitting the same epoch can never succeed; the sender must
	// stand down (a deposed primary demotes, a router re-resolves).
	ErrCodeFenced uint8 = 4

	// ErrCodeFailover marks an endpoint that cannot serve the role the
	// sender addressed (a dead or demoted shard member). Fatal at this
	// address — the sender must route around it (trigger or await a
	// failover), not retry here.
	ErrCodeFailover uint8 = 5
)

// Transport is a synchronous request/response channel to a remote peer —
// the shape of the paper's client↔provider interaction (HTTPS POST-like).
type Transport interface {
	// RoundTrip sends a request and returns the peer's response.
	RoundTrip(req []byte) ([]byte, error)
}

// Handler processes one request on the server side.
type Handler func(req []byte) ([]byte, error)

// Direction labels which half of a round trip a message traversal is on.
type Direction int

// Traversal directions.
const (
	// DirRequest is the client→provider half.
	DirRequest Direction = iota

	// DirResponse is the provider→client half.
	DirResponse
)

// String names the direction for fault-plan tables.
func (d Direction) String() string {
	if d == DirRequest {
		return "request"
	}
	return "response"
}

// Action is an Injector's verdict on one message traversal. The zero
// value delivers the message untouched.
type Action struct {
	// Drop loses the message; the sender's attempt times out.
	Drop bool

	// Duplicate delivers the request twice (request direction only) —
	// the peer's idempotency machinery is what keeps this harmless.
	Duplicate bool

	// Reorder holds this request back and delivers a previously held
	// one in its place (request direction only), so stale frames arrive
	// after newer ones.
	Reorder bool

	// Corrupt marks that the injector mutated the payload in flight.
	Corrupt bool

	// Reset aborts the round trip with ErrReset after a short charge.
	Reset bool

	// Delay is extra one-way latency (a congestion spike).
	Delay time.Duration
}

// Injector decides the fate of each message traversal. Implementations
// must be deterministic given their seed and safe for concurrent use.
// The returned payload replaces the original (corruption); return it
// unchanged when Action.Corrupt is false.
type Injector interface {
	Inject(dir Direction, payload []byte) ([]byte, Action)
}

// Link models one network path's conditions.
type Link struct {
	// Name labels the link in experiment tables.
	Name string

	// Latency is the one-way propagation delay.
	Latency time.Duration

	// Jitter is the standard deviation of per-message delay.
	Jitter time.Duration

	// LossProb is the probability that one direction of a round trip
	// loses the message.
	LossProb float64
}

// LinkLoopback models in-host communication (testing).
func LinkLoopback() Link {
	return Link{Name: "loopback"}
}

// LinkLAN models a local network.
func LinkLAN() Link {
	return Link{Name: "LAN", Latency: 200 * time.Microsecond, Jitter: 50 * time.Microsecond}
}

// LinkBroadband models a 2011-era consumer broadband path to a nearby
// provider.
func LinkBroadband() Link {
	return Link{Name: "broadband", Latency: 15 * time.Millisecond, Jitter: 3 * time.Millisecond}
}

// LinkWAN models an intercontinental path.
func LinkWAN() Link {
	return Link{Name: "WAN", Latency: 80 * time.Millisecond, Jitter: 10 * time.Millisecond, LossProb: 0.002}
}

// LinkMobile models a 3G mobile path.
func LinkMobile() Link {
	return Link{Name: "mobile-3G", Latency: 120 * time.Millisecond, Jitter: 30 * time.Millisecond, LossProb: 0.01}
}

// Links returns the modelled link profiles in table order.
func Links() []Link {
	return []Link{LinkLoopback(), LinkLAN(), LinkBroadband(), LinkWAN(), LinkMobile()}
}

// Config configures an in-memory transport.
type Config struct {
	// Clock receives the modelled network delays.
	Clock sim.Clock

	// Random drives jitter and loss.
	Random *sim.Rand

	// Link is the path model.
	Link Link

	// Retry, when non-nil, replaces the default retry loop (immediate
	// retransmission, 4 attempts, 2 s lost per dropped message) with a
	// full policy (backoff, jitter, deadline, classification).
	Retry *RetryPolicy

	// Faults, when non-nil, is consulted on every message traversal.
	Faults Injector

	// Metrics, when non-nil, receives live traffic counters and the
	// round-trip latency histogram.
	Metrics *obs.Registry

	// Tracer, when non-nil, receives per-session fault and retry
	// annotations for frames carrying a correlation-ID envelope.
	Tracer *obs.Tracer
}

// PipeStats counts what the link did to traffic.
type PipeStats struct {
	// Sent counts request attempts entering the link.
	Sent int
	// Lost counts messages dropped (modelled loss or injected drops).
	Lost int
	// Corrupted counts payloads mutated in flight.
	Corrupted int
	// Duplicated counts requests delivered twice.
	Duplicated int
	// Reordered counts requests held back for late delivery.
	Reordered int
	// Resets counts injected connection resets.
	Resets int
}

// Pipe is an in-memory Transport delivering requests to a Handler across
// a modelled Link. It is safe for concurrent use if the Handler is.
type Pipe struct {
	clock   sim.Clock
	rng     *sim.Rand
	link    Link
	timeout time.Duration
	retry   RetryPolicy
	faults  Injector
	handler Handler
	metrics *obs.Registry
	tracer  *obs.Tracer

	mu      sync.Mutex
	stats   PipeStats
	heldReq []byte // reorder stash: a request frame still "in flight"
}

// NewPipe connects a transport to a handler.
func NewPipe(cfg Config, handler Handler) *Pipe {
	if cfg.Clock == nil {
		cfg.Clock = sim.NewVirtualClock()
	}
	if cfg.Random == nil {
		cfg.Random = sim.NewRand(0x9E)
	}
	// The zero policy normalizes to the default: no backoff, so the
	// per-attempt timeout is the only cost of a loss.
	var retry RetryPolicy
	if cfg.Retry != nil {
		retry = *cfg.Retry
	}
	retry.normalize()
	return &Pipe{
		clock:   cfg.Clock,
		rng:     cfg.Random,
		link:    cfg.Link,
		timeout: retry.AttemptTimeout,
		retry:   retry,
		faults:  cfg.Faults,
		handler: handler,
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
	}
}

// oneWayDelay samples the delay of one message traversal.
func (p *Pipe) oneWayDelay() time.Duration {
	if p.link.Jitter <= 0 {
		return p.link.Latency
	}
	return p.rng.NormalDuration(p.link.Latency, p.link.Jitter)
}

// count mutates the stats under the lock.
func (p *Pipe) count(f func(*PipeStats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f(&p.stats)
}

// inject consults the fault hook for one traversal.
func (p *Pipe) inject(dir Direction, payload []byte) ([]byte, Action) {
	if p.faults == nil {
		return payload, Action{}
	}
	return p.faults.Inject(dir, payload)
}

// annotate records a per-session trace event when the frame carried a
// correlation-ID envelope (tracer and trace are nil-safe).
func (p *Pipe) annotate(sid obs.SessionID, hasSID bool, name, detail string) {
	if hasSID {
		p.tracer.Event(sid, name, detail)
	}
}

// RoundTrip implements Transport: request travels the link, the handler
// runs, the response travels back. Losses, resets, and in-flight
// corruption are retried under the pipe's RetryPolicy; handler errors on
// intact frames are fatal (the server really answered that).
func (p *Pipe) RoundTrip(req []byte) ([]byte, error) {
	sid, hasSID := obs.PeekSession(req)
	attempt := 0
	resp, err := p.retry.Run(p.clock, p.rng, func() ([]byte, error) {
		attempt++
		if attempt > 1 {
			p.metrics.Counter("net.retries").Inc()
			p.annotate(sid, hasSID, "net.retry", fmt.Sprintf("attempt=%d", attempt))
		}
		start := p.clock.Now()
		resp, err := p.attempt(req, sid, hasSID)
		if err == nil {
			p.metrics.Observe("net.rtt", p.clock.Now().Sub(start))
		}
		return resp, err
	})
	if err != nil {
		p.metrics.Counter("net.roundtrip_failures").Inc()
		return nil, fmt.Errorf("netsim: %s: %w", p.link.Name, err)
	}
	return resp, nil
}

// attempt performs one full traversal of the link, applying modelled
// loss and injected faults in both directions.
func (p *Pipe) attempt(req []byte, sid obs.SessionID, hasSID bool) ([]byte, error) {
	p.count(func(s *PipeStats) { s.Sent++ })
	p.metrics.Counter("net.sent").Inc()

	// Request direction.
	payload, act := p.inject(DirRequest, req)
	if act.Corrupt {
		p.count(func(s *PipeStats) { s.Corrupted++ })
		p.metrics.Counter("net.corrupted").Inc()
		p.annotate(sid, hasSID, "net.corrupt", "dir=request")
	}
	if act.Reset {
		p.count(func(s *PipeStats) { s.Resets++ })
		p.metrics.Counter("net.resets").Inc()
		p.annotate(sid, hasSID, "net.reset", "dir=request")
		p.clock.Sleep(p.oneWayDelay())
		return nil, ErrReset
	}
	if act.Drop || p.rng.Bool(p.link.LossProb) {
		p.count(func(s *PipeStats) { s.Lost++ })
		p.metrics.Counter("net.lost").Inc()
		p.annotate(sid, hasSID, "net.drop", "dir=request")
		p.clock.Sleep(p.timeout)
		return nil, ErrTimeout
	}
	if act.Reorder {
		if held := p.swapHeld(payload); held != nil {
			// An older frame overtakes this one: the peer sees the
			// stale frame now, ours stays in flight for later.
			p.metrics.Counter("net.reordered").Inc()
			p.annotate(sid, hasSID, "net.reorder", "overtaken by held frame")
			payload = held
		} else {
			// Nothing to swap with yet: the frame is in flight but will
			// not arrive before the sender's timer expires.
			p.count(func(s *PipeStats) { s.Lost++ })
			p.metrics.Counter("net.lost").Inc()
			p.annotate(sid, hasSID, "net.reorder", "held in flight")
			p.clock.Sleep(p.timeout)
			return nil, ErrTimeout
		}
	}
	if act.Duplicate {
		p.metrics.Counter("net.duplicated").Inc()
		p.annotate(sid, hasSID, "net.duplicate", "dir=request")
	}
	p.clock.Sleep(p.oneWayDelay() + act.Delay)

	resp, err := p.deliver(payload, act.Duplicate)
	if err != nil {
		if act.Corrupt {
			// The peer rejected a frame we damaged: the sender's frame
			// was fine, so retransmission is the right reaction.
			p.clock.Sleep(p.oneWayDelay())
			return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
		}
		return nil, err
	}

	// Response direction.
	respPayload, ract := p.inject(DirResponse, resp)
	if ract.Corrupt {
		p.count(func(s *PipeStats) { s.Corrupted++ })
		p.metrics.Counter("net.corrupted").Inc()
		p.annotate(sid, hasSID, "net.corrupt", "dir=response")
	}
	if ract.Reset {
		p.count(func(s *PipeStats) { s.Resets++ })
		p.metrics.Counter("net.resets").Inc()
		p.annotate(sid, hasSID, "net.reset", "dir=response")
		p.clock.Sleep(p.oneWayDelay())
		return nil, ErrReset
	}
	if ract.Drop || p.rng.Bool(p.link.LossProb) {
		p.count(func(s *PipeStats) { s.Lost++ })
		p.metrics.Counter("net.lost").Inc()
		p.annotate(sid, hasSID, "net.drop", "dir=response")
		p.clock.Sleep(p.timeout)
		return nil, ErrTimeout
	}
	p.clock.Sleep(p.oneWayDelay() + ract.Delay)
	return respPayload, nil
}

// deliver hands a frame to the handler, optionally twice (a duplicated
// frame on the wire); the duplicate's response is discarded, exercising
// the peer's idempotency.
func (p *Pipe) deliver(payload []byte, duplicate bool) ([]byte, error) {
	handler := p.currentHandler()
	if duplicate {
		p.count(func(s *PipeStats) { s.Duplicated++ })
		if _, err := handler(payload); err != nil {
			return nil, err
		}
	}
	return handler(payload)
}

// currentHandler reads the handler under the lock (it can be swapped by
// SetHandler while traffic is in flight).
func (p *Pipe) currentHandler() Handler {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.handler
}

// SetHandler replaces the server side of the pipe — the "same address,
// new process" a client sees after the provider restarts. In-flight
// round trips fail or complete against whichever end they reached.
func (p *Pipe) SetHandler(handler Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handler = handler
}

// swapHeld stashes cur as the in-flight frame and returns the previously
// held one (nil if none).
func (p *Pipe) swapHeld(cur []byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	held := p.heldReq
	p.heldReq = append([]byte(nil), cur...)
	p.stats.Reordered++
	return held
}

// Stats returns (messages sent, messages lost).
func (p *Pipe) Stats() (sent, lost int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats.Sent, p.stats.Lost
}

// FaultStats returns the full traffic-fate counters.
func (p *Pipe) FaultStats() PipeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// MaxFrameSize bounds a single protocol frame on real connections.
const MaxFrameSize = 1 << 20

// frameCRC is the frame checksum table (Castagnoli, the polynomial with
// hardware support on common CPUs).
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteFrame writes a 4-byte big-endian length prefix, the payload, and
// a 4-byte CRC32-C of the payload. TCP's 16-bit checksum misses real
// bit flips often enough that an unauthenticated length-prefixed stream
// would execute silently mutated requests; the trailer turns any
// payload damage into ErrCorruptFrame at the reader, which the retry
// machinery classifies as transient.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("netsim: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("netsim: write frame body: %w", err)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, frameCRC))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("netsim: write frame checksum: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame and verifies its checksum
// trailer; a mismatch returns ErrCorruptFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("netsim: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("netsim: read frame body: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("netsim: read frame checksum: %w", err)
	}
	if binary.BigEndian.Uint32(sum[:]) != crc32.Checksum(payload, frameCRC) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return payload, nil
}

// errorFrameTag prefixes an error frame on the wire. Protocol messages
// never start with a zero byte (core message type tags start at 1), so
// the two are unambiguous; handlers must not emit responses beginning
// with 0x00. The byte after the tag is the classification code
// (ErrCode*), followed by the error text.
const errorFrameTag = 0x00

// EncodeErrorFrame renders a handler error as a generic error frame
// payload (ErrCodeGeneric).
func EncodeErrorFrame(err error) []byte {
	return EncodeErrorFrameCode(ErrCodeGeneric, err)
}

// EncodeErrorFrameCode renders an error as an error frame carrying an
// explicit classification code.
func EncodeErrorFrameCode(code uint8, err error) []byte {
	msg := "unknown error"
	if err != nil {
		msg = err.Error()
	}
	return append([]byte{errorFrameTag, code}, msg...)
}

// DecodeErrorFrame reports whether a frame is an error frame and, if so,
// its message.
func DecodeErrorFrame(frame []byte) (string, bool) {
	_, msg, ok := DecodeErrorFrameCode(frame)
	return msg, ok
}

// DecodeErrorFrameCode reports whether a frame is an error frame and, if
// so, its classification code and message. A bare tag with no code byte
// decodes as ErrCodeGeneric with an empty message.
func DecodeErrorFrameCode(frame []byte) (uint8, string, bool) {
	if len(frame) == 0 || frame[0] != errorFrameTag {
		return 0, "", false
	}
	if len(frame) == 1 {
		return ErrCodeGeneric, "", true
	}
	return frame[1], string(frame[2:]), true
}
