package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Spans of one transaction share tx; a span
// with tx 0 belongs to no transaction (store work on the commit
// goroutine), and carries the backend role it ran for instead.
type span struct {
	name   string
	id     int64
	parent int64 // 0 = root
	tx     int64 // 0 = none
	track  int   // Chrome trace thread: client index, or a role track
	role   string
	start  time.Duration // since the tracer's epoch
	end    time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps one round's spans in memory until the round ends. A nil
// *tracer is a valid, disabled tracer: every method is a no-op, so
// untraced rounds pay one nil check per boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span or transaction ID (0 when disabled).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// since converts a wall instant to the tracer's timeline.
func (t *tracer) since(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// add records one finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record is add for a span timed by the caller with wall instants.
func (t *tracer) record(name string, parent, tx int64, track int, role string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{name: name, parent: parent, tx: tx, track: track, role: role,
		start: t.since(start), end: t.since(end)})
}

// take returns the spans recorded so far and starts a fresh list.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes one traced round's spans as a Chrome trace
// file.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range spans {
		s := &spans[i]
		args := map[string]any{"id": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.tx != 0 {
			args["tx"] = s.tx
		}
		if s.role != "" {
			args["role"] = s.role
		}
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.track,
			TS: micros(s.start), Dur: micros(s.dur()), Args: args,
		}); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
