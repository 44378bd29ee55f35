package captcha

import (
	"errors"
	"testing"

	"unitp/internal/sim"
)

func TestIssueAndAnswerCorrect(t *testing.T) {
	svc := NewService(sim.NewRand(1))
	ch := svc.Issue()
	if len(ch.Text) != TextLen {
		t.Fatalf("challenge text %q", ch.Text)
	}
	ok, err := svc.Answer(ch.ID, ch.Text)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("correct answer graded wrong")
	}
	issued, passed, failed := svc.Stats()
	if issued != 1 || passed != 1 || failed != 0 {
		t.Fatalf("stats = %d/%d/%d", issued, passed, failed)
	}
}

func TestAnswerWrong(t *testing.T) {
	svc := NewService(sim.NewRand(2))
	ch := svc.Issue()
	ok, err := svc.Answer(ch.ID, "zzzzzz")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong answer graded correct")
	}
}

func TestChallengeSingleUse(t *testing.T) {
	svc := NewService(sim.NewRand(3))
	ch := svc.Issue()
	if _, err := svc.Answer(ch.ID, ch.Text); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Answer(ch.ID, ch.Text); !errors.Is(err, ErrChallengeUnknown) {
		t.Fatalf("reuse: %v", err)
	}
	if _, err := svc.Answer(999, "x"); !errors.Is(err, ErrChallengeUnknown) {
		t.Fatalf("unknown: %v", err)
	}
}

func TestChallengesVary(t *testing.T) {
	svc := NewService(sim.NewRand(4))
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		seen[svc.Issue().Text] = true
	}
	if len(seen) < 45 {
		t.Fatalf("only %d distinct challenges in 50", len(seen))
	}
}

func TestChallengeAlphabet(t *testing.T) {
	svc := NewService(sim.NewRand(5))
	for i := 0; i < 20; i++ {
		for _, r := range svc.Issue().Text {
			if r == 'l' || r == 'o' || r == '0' || r == '1' || r == 'i' {
				t.Fatalf("ambiguous character %q in challenge", r)
			}
		}
	}
}

func TestSolverAccuracies(t *testing.T) {
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(6)
	const n = 2000
	for _, sv := range Solvers() {
		svc := NewService(rng.Fork("svc-" + sv.Name))
		passes, elapsed := Run(svc, sv, clock, rng.Fork(sv.Name), n)
		rate := float64(passes) / n
		if rate < sv.Accuracy-0.04 || rate > sv.Accuracy+0.04 {
			t.Fatalf("%s pass rate %.3f, want ~%.2f", sv.Name, rate, sv.Accuracy)
		}
		if elapsed <= 0 {
			t.Fatalf("%s charged no time", sv.Name)
		}
		meanSolve := elapsed / n
		if meanSolve < sv.SolveTime/2 || meanSolve > sv.SolveTime*2 {
			t.Fatalf("%s mean solve %v, want ~%v", sv.Name, meanSolve, sv.SolveTime)
		}
	}
}

func TestWrongAnswersDiffer(t *testing.T) {
	// A solver that always fails must never return the correct text.
	clock := sim.NewVirtualClock()
	rng := sim.NewRand(7)
	svc := NewService(rng.Fork("svc"))
	sv := Solver{Name: "always-wrong", Accuracy: 0}
	for i := 0; i < 100; i++ {
		ch := svc.Issue()
		if sv.Attempt(clock, rng, ch) == ch.Text {
			t.Fatal("failed attempt produced correct answer")
		}
	}
}

func TestSolverShape(t *testing.T) {
	// The F4 experiment's premise: bots beat CAPTCHAs at meaningful
	// rates while humans pay tens of seconds.
	if OCRBot().Accuracy < 0.25 {
		t.Fatal("OCR bot model too weak to make the paper's point")
	}
	if HumanSolver().SolveTime < 5e9 {
		t.Fatal("human solve time implausibly fast")
	}
	if SolverFarm().CostPerSolveMicroUSD == 0 {
		t.Fatal("solver farm should have a cost")
	}
	if len(Solvers()) != 4 {
		t.Fatalf("solvers = %d", len(Solvers()))
	}
}
