package fleet

import (
	"log/slog"
	"sync"
	"time"
)

// Warden is the router-side supervisor of a fleet: a periodic health
// pass over every shard handle that turns member-level
// failures into protocol actions — failover when the primary is dead or
// fenced, demotion of stale primaries that rejoined from an old
// lineage, and re-adoption of followers that fell out of the replica
// set (restarted processes, healed partitions). Request-path failover
// still happens inline in the router; the warden catches what no
// request happens to trip over, and does the repair work (re-adoption)
// that the request path never does.
type Warden struct {
	shards []*ShardHandle
	every  time.Duration
	logger *slog.Logger

	mu   sync.Mutex
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewWarden supervises the given shards every interval (default 250ms).
func NewWarden(shards []*ShardHandle, every time.Duration, logger *slog.Logger) *Warden {
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Warden{shards: shards, every: every, logger: logger}
}

// Start launches the supervision loop; idempotent.
func (w *Warden) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stop != nil {
		return
	}
	stop := make(chan struct{})
	w.stop = stop
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		ticker := time.NewTicker(w.every)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				for _, sh := range w.shards {
					select {
					case <-stop:
						return
					default:
					}
					sh.HealthCheck()
				}
			}
		}
	}()
}

// Stop halts supervision and waits for the in-flight pass to finish.
func (w *Warden) Stop() {
	w.mu.Lock()
	stop := w.stop
	w.stop = nil
	w.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	w.wg.Wait()
}
