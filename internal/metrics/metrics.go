// Package metrics provides the measurement plumbing of the experiment
// harness: duration histograms with percentiles, and plain-text table
// rendering for reproducing the paper's tables and figure series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram accumulates duration samples, retaining every one, so
// percentiles are exact. Memory grows linearly with Record calls: use
// it for bounded bench runs (the experiment harness), and use
// BoundedHistogram anywhere a long-running process records — the live
// metrics registry, servers, soak tests. The zero value is ready for
// use. It is safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// sortLocked sorts samples if needed. Must be called with h.mu held.
func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Mean returns the arithmetic mean (zero when empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Min returns the smallest sample (zero when empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

// Max returns the largest sample (zero when empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank. Zero when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return h.samples[rank-1]
}

// Stddev returns the sample standard deviation (zero for fewer than two
// samples).
func (h *Histogram) Stddev() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, s := range h.samples {
		sum += float64(s)
	}
	mean := sum / float64(n)
	var ss float64
	for _, s := range h.samples {
		d := float64(s) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss / float64(n-1)))
}

// Summary renders "mean ± sd (p50/p95)" for table cells.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("%s ± %s (p50 %s, p95 %s)",
		Millis(h.Mean()), Millis(h.Stddev()), Millis(h.Percentile(50)), Millis(h.Percentile(95)))
}

// Counter is a monotonically increasing event count, safe for
// concurrent use. The zero value is ready.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta. Counters are monotonic: a negative delta is a
// programming error and panics — use a Gauge for values that go down.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: Counter.Add(%d): counters only go up; use a Gauge", delta))
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Millis renders a duration as milliseconds with 1 decimal.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// Table renders aligned plain-text experiment tables.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.headers))
	for i, hdr := range t.headers {
		widths[i] = len(hdr)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Series is a named (x, y) sequence for figure reproduction.
type Series struct {
	// Name labels the series.
	Name string

	// X holds the independent variable values.
	X []float64

	// Y holds the dependent variable values.
	Y []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Render prints the series as "x<TAB>y" lines with a header, the format
// the figure harness emits for plotting.
func (s *Series) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# series: %s\n", s.Name)
	for i := range s.X {
		fmt.Fprintf(&sb, "%g\t%g\n", s.X[i], s.Y[i])
	}
	return sb.String()
}
