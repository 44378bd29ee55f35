package workload

import (
	"fmt"
	"time"

	"unitp/internal/core"
	"unitp/internal/sim"
)

// TxStream generates a deterministic stream of plausible payment orders
// for one account — the offered load of the end-to-end experiments.
type TxStream struct {
	rng  *sim.Rand
	from string
	minC int64
	maxC int64
	next int
}

// streamPayee is the legitimate recipient of every order.
const streamPayee = "bob"

// meanTxGap is the mean inter-transaction time: retail e-banking
// cadence.
const meanTxGap = 2 * time.Hour

// TxStreamConfig parameterizes a stream.
type TxStreamConfig struct {
	// From is the paying account.
	From string

	// MinCents / MaxCents bound the drawn amounts (defaults 500 /
	// 50_000).
	MinCents, MaxCents int64
}

// NewTxStream builds a stream.
func NewTxStream(rng *sim.Rand, cfg TxStreamConfig) *TxStream {
	if rng == nil {
		rng = sim.NewRand(0x75)
	}
	if cfg.MinCents == 0 {
		cfg.MinCents = 500
	}
	if cfg.MaxCents == 0 {
		cfg.MaxCents = 50_000
	}
	return &TxStream{
		rng:  rng,
		from: cfg.From,
		minC: cfg.MinCents,
		maxC: cfg.MaxCents,
	}
}

// Next draws the next transaction and the think-time gap before it.
func (s *TxStream) Next() (*core.Transaction, time.Duration) {
	s.next++
	span := s.maxC - s.minC
	amount := s.minC
	if span > 0 {
		amount += int64(s.rng.Intn(int(span)))
	}
	// One draw stands where a payee choice was made, so every later
	// value of a seeded stream, which the seeded goldens pin, is kept.
	s.rng.Intn(1)
	tx := &core.Transaction{
		ID:          fmt.Sprintf("%s-tx-%06d", s.from, s.next),
		From:        s.from,
		To:          streamPayee,
		AmountCents: amount,
		Currency:    "EUR",
		Memo:        fmt.Sprintf("order %d", s.next),
	}
	return tx, time.Duration(s.rng.Exponential(float64(meanTxGap)))
}

// Count reports how many transactions have been drawn.
func (s *TxStream) Count() int { return s.next }
