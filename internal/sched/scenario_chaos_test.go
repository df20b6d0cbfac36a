// Scenario × elastic-scheduler chaos coverage (external test package:
// the scenario registry must not import sched, and sched must not
// import scenario, so the composition is exercised from outside both).
package sched_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/scenario"
	"blueskies/internal/sched"
)

// chaosKilledWorker fails every evaluation after its budget — a worker
// killed mid-run (budget 1) or dead on arrival (budget 0).
type chaosKilledWorker struct {
	inner sched.Worker
	left  atomic.Int64
}

func (w *chaosKilledWorker) Name() string { return w.inner.Name() + "-dying" }

func (w *chaosKilledWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	if w.left.Add(-1) < 0 {
		return nil, errors.New("worker killed")
	}
	return w.inner.Eval(ctx, req)
}

// chaosSlowWorker defers every evaluation — the injected straggler the
// speculation path races against.
type chaosSlowWorker struct {
	inner sched.Worker
	delay time.Duration
}

func (w *chaosSlowWorker) Name() string { return w.inner.Name() + "-slow" }

func (w *chaosSlowWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	time.Sleep(w.delay)
	return w.inner.Eval(ctx, req)
}

func spillScenario(t *testing.T, s *scenario.Scenario) *core.Corpus {
	t.Helper()
	dir := t.TempDir()
	if _, err := s.Spill(dir); err != nil {
		t.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func compareReports(t *testing.T, label string, got, want []*analysis.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: report %d is %s, want %s", label, i, got[i].ID, want[i].ID)
		}
		if got[i].String() != want[i].String() {
			t.Errorf("%s: report %s differs:\n--- got ---\n%s\n--- want ---\n%s",
				label, got[i].ID, got[i].String(), want[i].String())
		}
	}
}

// TestElasticScenarioChaosMatrix extends the chaos matrix to scenario
// corpora: the spam-flood (transformed moderation shock) and
// seq-gap-storm (stress-config) corpora run remote under worker death,
// stragglers, stealing and speculation — in both shipping modes — and
// must stay byte-identical to the local one-worker golden.
func TestElasticScenarioChaosMatrix(t *testing.T) {
	for _, name := range []string{"spam-flood", "seq-gap-storm"} {
		s, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		golden := analysis.RunAll(s.Dataset(), 1)
		for _, ship := range []bool{false, true} {
			c := spillScenario(t, s)
			dying := &chaosKilledWorker{inner: &sched.Loopback{Server: &sched.Server{}, Label: "dying"}}
			dying.left.Store(1)
			slow := &chaosSlowWorker{inner: &sched.Loopback{Server: &sched.Server{}, Label: "slow"}, delay: 30 * time.Millisecond}
			sc := sched.New(c, dying, slow)
			sc.ShipBlocks = ship
			sc.SpeculateAfter = 60 * time.Millisecond
			sc.Logf = t.Logf
			got, err := sc.RunAll(2)
			if err != nil {
				t.Fatalf("%s ship=%v: %v", name, ship, err)
			}
			compareReports(t, name+"-chaos", got, golden)
		}
	}
}

// TestElasticScenarioLocalFallback covers the path the chaos matrix
// never reached before: every worker dead on arrival, so the scheduler
// must evaluate the scenario corpus locally out of core — still
// byte-identical to the golden.
func TestElasticScenarioLocalFallback(t *testing.T) {
	s, ok := scenario.Get("spam-flood")
	if !ok {
		t.Fatal("spam-flood not registered")
	}
	golden := analysis.RunAll(s.Dataset(), 1)
	c := spillScenario(t, s)
	dead := &chaosKilledWorker{inner: &sched.Loopback{Server: &sched.Server{}, Label: "dead"}}
	dead.left.Store(0)
	sc := sched.New(c, dead)
	sc.Logf = t.Logf
	got, err := sc.RunAll(2)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "local-fallback", got, golden)

	// With NoFallback the same dead pool must fail loudly instead.
	c2 := spillScenario(t, s)
	dead2 := &chaosKilledWorker{inner: &sched.Loopback{Server: &sched.Server{}, Label: "dead"}}
	dead2.left.Store(0)
	sc2 := sched.New(c2, dead2)
	sc2.NoFallback = true
	if _, err := sc2.RunAll(2); err == nil {
		t.Fatal("NoFallback run with a dead pool succeeded; want a loud failure")
	}
}
