// Package captcha models the incumbent human-verification mechanism the
// paper positions its trusted path against: visual CAPTCHA challenges
// with era-accurate solver models for legitimate humans, OCR bots, and
// human solver farms.
//
// Nothing here is a security mechanism — it is a statistical baseline
// for experiment F4 (human pass rate, bot bypass rate, and the human
// time cost of each scheme). The solve rates default to values consistent
// with the 2008–2011 literature on CAPTCHA usability (humans ~90%, with
// 10–15 s solve times) and OCR attacks (30–70% on deployed schemes), and
// are configurable for sensitivity sweeps.
package captcha

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"unitp/internal/sim"
)

// ErrChallengeUnknown is returned when answering a challenge that was
// never issued or was already consumed.
var ErrChallengeUnknown = errors.New("captcha: unknown or consumed challenge")

// Challenge is one issued CAPTCHA.
type Challenge struct {
	// ID identifies the challenge.
	ID uint64

	// Text is the distorted string the human must transcribe. (The
	// distortion is abstract: solvers interact with solve-probability
	// models, not pixels.)
	Text string
}

// Service issues and grades CAPTCHA challenges.
type Service struct {
	mu      sync.Mutex
	rng     *sim.Rand
	nextID  uint64
	pending map[uint64]string

	issued int
	passed int
	failed int
}

// alphabet excludes visually ambiguous characters, as deployed schemes
// did.
const alphabet = "abcdefghjkmnpqrstuvwxyz23456789"

// TextLen is the transcription length.
const TextLen = 6

// NewService creates a CAPTCHA service.
func NewService(rng *sim.Rand) *Service {
	if rng == nil {
		rng = sim.NewRand(0xCAF)
	}
	return &Service{
		rng:     rng,
		pending: make(map[uint64]string),
	}
}

// Text draws one transcription of TextLen characters from rng.
func Text(rng *sim.Rand) string {
	var sb strings.Builder
	for i := 0; i < TextLen; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// Issue creates a challenge.
func (s *Service) Issue() Challenge {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	text := Text(s.rng)
	s.pending[id] = text
	s.issued++
	return Challenge{ID: id, Text: text}
}

// Answer grades a response, consuming the challenge.
func (s *Service) Answer(id uint64, response string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	want, ok := s.pending[id]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrChallengeUnknown, id)
	}
	delete(s.pending, id)
	if response == want {
		s.passed++
		return true, nil
	}
	s.failed++
	return false, nil
}

// Stats returns (issued, passed, failed) counts.
func (s *Service) Stats() (issued, passed, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued, s.passed, s.failed
}

// Solver attempts CAPTCHA challenges with a given accuracy and time
// cost.
type Solver struct {
	// Name labels the solver in tables.
	Name string

	// Accuracy is the per-challenge success probability.
	Accuracy float64

	// SolveTime is the mean time to produce an answer.
	SolveTime time.Duration

	// SolveJitter is the standard deviation of the solve time.
	SolveJitter time.Duration

	// CostPerSolveMicroUSD is the marginal cost of one attempt in
	// micro-dollars (relevant for the solver-farm economics row).
	CostPerSolveMicroUSD int64
}

// HumanSolver models a legitimate user: ~90% accuracy at ~11 s, free.
func HumanSolver() Solver {
	return Solver{
		Name:        "human",
		Accuracy:    0.90,
		SolveTime:   11 * time.Second,
		SolveJitter: 4 * time.Second,
	}
}

// OCRBot models an automated attack on era schemes.
func OCRBot() Solver {
	return Solver{
		Name:        "ocr-bot",
		Accuracy:    0.45,
		SolveTime:   300 * time.Millisecond,
		SolveJitter: 100 * time.Millisecond,
	}
}

// WeakOCRBot models an attack on a hardened scheme.
func WeakOCRBot() Solver {
	return Solver{
		Name:        "ocr-bot-hardened-scheme",
		Accuracy:    0.15,
		SolveTime:   500 * time.Millisecond,
		SolveJitter: 150 * time.Millisecond,
	}
}

// SolverFarm models outsourced human solving: near-perfect, slow-ish,
// ~$1 per thousand.
func SolverFarm() Solver {
	return Solver{
		Name:                 "human-solver-farm",
		Accuracy:             0.98,
		SolveTime:            20 * time.Second,
		SolveJitter:          8 * time.Second,
		CostPerSolveMicroUSD: 1000,
	}
}

// Solvers returns the modelled solver population in table order.
func Solvers() []Solver {
	return []Solver{HumanSolver(), OCRBot(), WeakOCRBot(), SolverFarm()}
}

// Attempt runs one solve attempt: it charges the solver's time to the
// clock and returns the (possibly wrong) transcription.
func (sv Solver) Attempt(clock sim.Clock, rng *sim.Rand, ch Challenge) string {
	clock.Sleep(rng.NormalDuration(sv.SolveTime, sv.SolveJitter))
	if rng.Bool(sv.Accuracy) {
		return ch.Text
	}
	// A wrong answer: perturb one character.
	b := []byte(ch.Text)
	if len(b) > 0 {
		i := rng.Intn(len(b))
		b[i] = alphabet[rng.Intn(len(alphabet))]
		if string(b) == ch.Text {
			b[i] = b[i] ^ 1 // force difference
		}
	}
	return string(b)
}

// Run executes n challenge/solve rounds for a solver and reports the
// pass count and total (virtual) time spent.
func Run(svc *Service, sv Solver, clock sim.Clock, rng *sim.Rand, n int) (passes int, elapsed time.Duration) {
	sw := sim.NewStopwatch(clock)
	for i := 0; i < n; i++ {
		ch := svc.Issue()
		resp := sv.Attempt(clock, rng, ch)
		ok, err := svc.Answer(ch.ID, resp)
		if err == nil && ok {
			passes++
		}
	}
	return passes, sw.Elapsed()
}
