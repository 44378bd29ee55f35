package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBoundedHistogramEmpty(t *testing.T) {
	var h BoundedHistogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty bounded histogram not all-zero")
	}
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("empty Percentile(50) = %v", got)
	}
}

func TestBoundedHistogramExactScalars(t *testing.T) {
	var h BoundedHistogram
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 8 * time.Millisecond} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 4*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != 8*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestBoundedHistogramPercentileBrackets(t *testing.T) {
	// 100 samples of 1 ms: every percentile estimate must bracket the
	// true value within its bucket — at least 1 ms, at most the bucket
	// upper bound (2.048 ms), and never above the exact max.
	var h BoundedHistogram
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		got := h.Percentile(p)
		if got < time.Millisecond || got > h.Max() {
			t.Fatalf("Percentile(%v) = %v outside [1ms, max=%v]", p, got, h.Max())
		}
	}
}

func TestBoundedHistogramOutOfRangeSamples(t *testing.T) {
	var h BoundedHistogram
	h.Record(0)                    // below 1 µs: first bucket
	h.Record(-time.Second)         // nonsense negative: first bucket, min tracks it
	h.Record(400 * 24 * time.Hour) // beyond the top bucket: clamped
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100 %v != max %v", h.Percentile(100), h.Max())
	}
}

func TestBoundedHistogramConcurrent(t *testing.T) {
	var h BoundedHistogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8*500 {
		t.Fatalf("Count = %d, want %d", h.Count(), 8*500)
	}
}

func TestBoundedHistogramSnapshotAndSummary(t *testing.T) {
	var h BoundedHistogram
	h.Record(2 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.MeanMS != 2.0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if s := h.Summary(); !strings.Contains(s, "p95") {
		t.Fatalf("summary %q lacks percentiles", s)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != -2 {
		t.Fatalf("Value = %d, want -2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value after Set = %d", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("balanced inc/dec left %d", got)
	}
}

func TestCounterAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Counter.Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestHistogramPercentileBoundaryRanks(t *testing.T) {
	var h Histogram
	h.Record(5 * time.Millisecond)
	// Single sample: every rank collapses to it.
	for _, p := range []float64{0, 0.001, 50, 99.999, 100} {
		if got := h.Percentile(p); got != 5*time.Millisecond {
			t.Fatalf("single-sample Percentile(%v) = %v", p, got)
		}
	}
	h.Record(1 * time.Millisecond)
	h.Record(9 * time.Millisecond)
	if got := h.Percentile(0); got != 1*time.Millisecond {
		t.Fatalf("p0 = %v, want min", got)
	}
	if got := h.Percentile(100); got != 9*time.Millisecond {
		t.Fatalf("p100 = %v, want max", got)
	}
	if got := h.Percentile(-5); got != 1*time.Millisecond {
		t.Fatalf("p(-5) = %v, want min", got)
	}
	if got := h.Percentile(250); got != 9*time.Millisecond {
		t.Fatalf("p250 = %v, want max", got)
	}
}

func TestTableRenderRaggedRows(t *testing.T) {
	tb := NewTable("ragged", "a", "b", "c")
	tb.AddRow("1")
	tb.AddRow("1", "2", "3")
	tb.AddRow("1", "2", "3", "4") // extra cell is dropped, not a panic
	out := tb.Render()
	if !strings.Contains(out, "ragged") {
		t.Fatalf("title missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+2+3 { // title + header + separator + 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if strings.Contains(out, "4") {
		t.Fatalf("overlong row leaked extra cell:\n%s", out)
	}
}
