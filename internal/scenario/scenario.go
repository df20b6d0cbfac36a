// Package scenario is the adversarial & stress scenario harness: a
// registry of named, seeded fault-injection workloads that drive the
// replay/stream path through the misbehavior a live network exhibits —
// labeler outages, relay reconnects, sequence-gap storms, PDS churn,
// migration waves, spam floods, pathological skew, faster-than-real-
// time replay — and assert an invariant about the outcome.
//
// Every scenario is deterministic: the corpus comes from a seeded
// synth config, the transform draws from the scenario's own disjoint
// RNG stream (synth.ScenarioRNG), and the fault schedule is a fixed
// set of (stream, seq) → action points. Same seed ⇒ byte-identical
// run, which is what turns each robustness claim into a reusable
// regression (DESIGN.md §13).
package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/events"
	"blueskies/internal/synth"
)

// Class names the assertion taxonomy a scenario belongs to.
type Class string

const (
	// GoldenParity: the engine survives the faults and the streamed
	// tables are byte-identical to the unfaulted batch evaluation of
	// the same (possibly transformed) corpus — the unfaulted golden.
	GoldenParity Class = "golden-parity"
	// TypedFailure: the faults corrupt the stream; the run must fail
	// loudly with a typed error (*core.StreamGapError), never render
	// silently thinned tables.
	TypedFailure Class = "typed-failure"
	// TableShift: the transform changes the corpus the way the paper's
	// §5 moderation analysis predicts — a named table must shift in
	// the predicted direction versus the untransformed baseline, and
	// the faulted stream run must still match the batch run
	// byte-for-byte.
	TableShift Class = "table-shift"
)

// Scenario is one named, seeded fault-injection workload.
type Scenario struct {
	Name        string
	Description string
	Class       Class
	// Config seeds the base corpus generation.
	Config synth.Config
	// Partitions is how many ways Spill splits the corpus for
	// scheduler and bench runs (minimum 1).
	Partitions int
	// BlockSize overrides the replay's records-per-frame chunking
	// (<= 0 means synth.ReplayBlockSize). Smaller blocks mean more
	// frames — the knob the fast-replay scenarios turn to make
	// backpressure measurable on a test-sized corpus.
	BlockSize int
	// Transform deterministically rewrites the generated dataset (bot
	// floods, migration waves, skew). rng is the scenario's own seeded
	// stream; transforms must preserve the orderings core.Split
	// depends on (users DID-ordered, daily date-ordered).
	Transform func(ds *core.Dataset, rng *rand.Rand)
	// Faults builds the stream fault schedule from the replay's frame
	// counts (stream 0 = firehose, stream 1 = labeler). Nil means an
	// unfaulted replay.
	Faults func(fire, labeler int64) *core.FaultSchedule
	// Assert judges a completed run; non-nil for every registered
	// scenario.
	Assert func(r *Result) error
}

// Result is everything one end-to-end scenario run produced.
type Result struct {
	Scenario *Scenario
	// Baseline is the untransformed, unfaulted corpus evaluated by the
	// batch engine — the reference for table-shift predictions.
	Baseline []*analysis.Report
	// Batch is the transformed corpus through the batch engine — the
	// unfaulted golden for stream parity.
	Batch []*analysis.Report
	// Stream is the transformed corpus replayed through the faulted
	// drain-mode stream path (nil when StreamErr is set).
	Stream []*analysis.Report
	// StreamErr is the stream run's loud failure, if any.
	StreamErr error
	// BaselineCounts and Counts are the record counts before and after
	// Transform.
	BaselineCounts, Counts core.CollectionCounts
	// FireFrames and LabelFrames are the per-stream replay frame
	// counts the fault schedule was built from.
	FireFrames, LabelFrames int64
	// BacklogHighWater is the maximum combined retained-frame count
	// observed across both sequencers during the faulted replay — the
	// backpressure measurement the >>1× real-time scenarios bound.
	BacklogHighWater int
	// FinalBacklog is the combined retained-frame count after the run:
	// ≤ 2 (at most the end-of-stream markers) proves the drain tap
	// trimmed as it went instead of buffering a second corpus.
	FinalBacklog int
}

// Records is the transformed corpus's total record count.
func (r *Result) Records() int { return r.Counts.Total() }

var (
	regMu    sync.Mutex
	registry = map[string]*Scenario{}
	// regOrder keeps registration deterministic without iterating the
	// map (registration happens in init order, which is fixed).
	regOrder []string
)

// Register adds a scenario to the registry; it panics on a duplicate
// or unnamed scenario (registration is programmer intent, not input).
func Register(s *Scenario) {
	if s == nil || s.Name == "" {
		panic("scenario: Register of unnamed scenario")
	}
	if s.Assert == nil {
		panic("scenario: Register of " + s.Name + " without an Assert")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate Register of " + s.Name)
	}
	registry[s.Name] = s
	regOrder = append(regOrder, s.Name)
}

// Get returns a registered scenario by name.
func Get(name string) (*Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]string(nil), regOrder...)
	sort.Strings(out)
	return out
}

// All returns the registered scenarios in name order.
func All() []*Scenario {
	names := Names()
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Scenario, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Dataset materializes the scenario's corpus: the seeded base
// generation plus the deterministic transform.
func (s *Scenario) Dataset() *core.Dataset {
	ds := synth.Generate(s.Config)
	if s.Transform != nil {
		s.Transform(ds, synth.ScenarioRNG(s.Config.Seed, s.Name))
	}
	return ds
}

// Spill writes the scenario's transformed corpus to dir as a
// Partitions-way disk partition store, ready for out-of-core or
// elastic-scheduler evaluation (bskyanalyze -corpus, sched.New).
func (s *Scenario) Spill(dir string) (*core.Manifest, error) {
	n := s.Partitions
	if n < 1 {
		n = 1
	}
	parts, m := core.Split(s.Dataset(), n)
	m.Seed = s.Config.Seed
	return m, core.WriteCorpus(dir, parts, m)
}

// Run executes the scenario end-to-end with the given engine worker
// count (0 = min(GOMAXPROCS, #accumulators)): baseline batch
// evaluation, transform, golden batch evaluation, then a faulted
// drain-mode stream replay. The
// returned error is infrastructural (replay emit failure); the stream
// consumer's loud failures land in Result.StreamErr, where Assert
// judges them.
func Run(s *Scenario, workers int) (*Result, error) {
	base := synth.Generate(s.Config)
	r := &Result{Scenario: s, BaselineCounts: base.Counts()}
	r.Baseline = analysis.RunAll(base, workers)

	ds := base
	if s.Transform != nil {
		s.Transform(ds, synth.ScenarioRNG(s.Config.Seed, s.Name))
	}
	r.Counts = ds.Counts()
	r.Batch = analysis.RunAll(ds, workers)

	r.FireFrames, r.LabelFrames = synth.ReplayFrames(ds, s.BlockSize)
	var fs *core.FaultSchedule
	if s.Faults != nil {
		fs = s.Faults(r.FireFrames, r.LabelFrames)
	}
	stream, high, final, streamErr, err := replayFaulted(ds, fs, s.BlockSize, workers)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: replay: %w", s.Name, err)
	}
	r.BacklogHighWater = high
	r.FinalBacklog = final
	r.StreamErr = streamErr
	if streamErr == nil {
		r.Stream = stream
	}
	return r, nil
}

// replayFaulted replays ds through a faulted drain-mode stream tap
// into the full engine, sampling the combined sequencer backlog after
// every emitted frame. streamErr carries the consumer side's loud
// failure; err is infrastructural.
func replayFaulted(ds *core.Dataset, fs *core.FaultSchedule, blockSize, workers int) (reports []*analysis.Report, high, final int, streamErr, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fire := events.NewSequencer(0, 0)
	labeler := events.NewSequencer(0, 0)
	blocks, errs := core.DrainSequencersFaulted(ctx, fs, fire, labeler)

	// The hook runs on the replay goroutine; the final value is read
	// only after the replay error channel delivers (happens-before).
	hooks := synth.ReplayHooks{BlockSize: blockSize, OnEmit: func(int, int64) {
		if n := fire.BacklogLen() + labeler.BacklogLen(); n > high {
			high = n
		}
	}}
	replayErr := make(chan error, 1)
	go func() { replayErr <- synth.ReplayWithHooks(ds, fire, labeler, hooks) }()

	src := &analysis.StreamSource{Blocks: blocks}
	reports, runErr := analysis.NewFullEngine().Workers(workers).RunSource(src)
	if rerr := <-replayErr; rerr != nil {
		return nil, high, 0, nil, rerr
	}
	for e := range errs {
		if e != nil && streamErr == nil {
			streamErr = e
		}
	}
	if streamErr == nil && runErr != nil {
		streamErr = runErr
	}
	final = fire.BacklogLen() + labeler.BacklogLen()
	return analysis.Canonicalize(reports), high, final, streamErr, nil
}

// AssertStreamMatchesBatch is the golden-parity core: the faulted
// stream run succeeded and rendered byte-identical tables to the
// unfaulted batch evaluation of the same corpus.
func AssertStreamMatchesBatch(r *Result) error {
	if r.StreamErr != nil {
		return fmt.Errorf("scenario %s: stream run failed: %w", r.Scenario.Name, r.StreamErr)
	}
	if diff := analysis.DiffReports(r.Stream, r.Batch); len(diff) > 0 {
		return fmt.Errorf("scenario %s: stream run diverges from the unfaulted batch golden on %v", r.Scenario.Name, diff)
	}
	return nil
}

// AssertTypedGapFailure demands the stream run failed loudly with a
// typed *core.StreamGapError — the fail-loud contract for corpora the
// faults actually thinned.
func AssertTypedGapFailure(r *Result) error {
	if r.StreamErr == nil {
		return fmt.Errorf("scenario %s: faulted stream rendered tables; want a typed loud failure", r.Scenario.Name)
	}
	var gap *core.StreamGapError
	if !errors.As(r.StreamErr, &gap) {
		return fmt.Errorf("scenario %s: stream failure %v is not a *core.StreamGapError", r.Scenario.Name, r.StreamErr)
	}
	if gap.Lost < 1 || gap.From < 1 || gap.To <= gap.From {
		return fmt.Errorf("scenario %s: malformed gap report %+v", r.Scenario.Name, gap)
	}
	return nil
}
