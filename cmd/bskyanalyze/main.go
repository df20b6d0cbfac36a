// bskyanalyze regenerates every table and figure of the paper from a
// calibrated synthetic dataset.
//
// Usage:
//
//	bskyanalyze [-scale N] [-seed S] [-only T1,F12] [-workers N]
//	bskyanalyze -partitions N [-partition-mode split|independent] [-plan]
//	bskyanalyze -input seed=1,scale=1000 -input seed=2,scale=1000 ...
//	bskyanalyze -follow [-snapshot-every N] [-partitions N]
//	bskyanalyze -spill DIR [-partitions N] [-partition-mode M]
//	bskyanalyze -corpus DIR [-plan] [-only T1] [-workers N]
//	bskyanalyze -corpus DIR -workers-at host:port,... [-ship-blocks]
//	bskyanalyze -corpus DIR -workers-at loopback[:N]
//	bskyanalyze -scenario NAME | -scenario list
//
// The evaluation runs through the single-pass engine (analysis.RunAll),
// which streams every record block through all report accumulators at
// once, split into -workers accumulator groups per partition (0 =
// GOMAXPROCS, shared across partitions, at most one group per
// accumulator).
//
// -partitions N evaluates the corpus as N partitions through the
// two-level merge: per-partition traversals, then a
// cross-partition fold of intern tables and shard state. In the
// default split mode the partitions are row-range views of one
// generated corpus and the output is byte-identical to the unsplit
// run; in independent mode the partitions are generated on disjoint
// RNG sub-streams (synth.GeneratePartitioned), one dataset per
// simulated repo-crawl shard. Repeatable -input flags instead evaluate
// several independently generated corpora (e.g. different seeds) as
// one federated corpus. -plan prints the partition-plan summary.
//
// -follow exercises the streaming path: the corpus is replayed through
// in-process firehose + labeler sequencer pairs — one pair per
// partition — the engine consumes the record streams without ever
// holding the materialized dataset, and refreshed tables print as
// merged stop-the-world snapshots arrive. The final snapshot is
// byte-identical to the batch output.
//
// -spill DIR writes the corpus the other flags describe to DIR as a
// disk-backed partition store (block files + manifest.json, DESIGN.md
// §8) instead of evaluating it; in independent mode the partitions
// spill as they are generated, so memory stays bounded by one resident
// partition per worker at any -partitions count. -corpus DIR evaluates
// a previously spilled store out of core: partitions stream from disk
// block by block through the two-level merge, byte-identical to the
// in-memory evaluation of the same corpus. -corpus honors -plan, -only,
// and -workers; generation flags are ignored.
//
// -workers-at HOSTS schedules the store's partitions onto remote
// bskyworker daemons (comma-separated host:port list): each partition's
// level-one merge runs on a worker, the serialized shard state ships
// back, and the level-two fold happens locally — byte-identical to the
// local -corpus run. -ship-blocks streams each partition's block frames
// inside the request (for workers that cannot reach the store path);
// otherwise workers open the store directory themselves. A worker that
// dies mid-run is retried on the others and, failing that, its
// partitions fall back to the local out-of-core traversal.
// "-workers-at loopback" (or loopback:N) runs N in-process workers
// through the full wire codec — the single-machine proof of the remote
// path.
//
// -scenario NAME runs one registered fault-injection scenario
// (internal/scenario) end-to-end — baseline evaluation, deterministic
// transform, faulted stream replay — judges its assertion (exit 1 on
// failure), and prints the transformed corpus's tables. -scenario list
// prints the registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/events"
	"blueskies/internal/scenario"
	"blueskies/internal/sched"
	"blueskies/internal/synth"
)

type inputSpec struct {
	seed     int64
	scale    int
	hasSeed  bool
	hasScale bool
}

func main() {
	scale := flag.Int("scale", 1000, "downscaling factor vs. the paper's dataset")
	seed := flag.Int64("seed", 2024, "generation seed")
	only := flag.String("only", "", "comma-separated report IDs (e.g. T1,F12); empty = all")
	workers := flag.Int("workers", 0, "accumulator groups per partition (0 = GOMAXPROCS shared across partitions, at most one per accumulator)")
	follow := flag.Bool("follow", false, "consume the corpus as live record streams and print refreshed tables as snapshots arrive")
	snapEvery := flag.Int("snapshot-every", 100_000, "records between streaming snapshots in -follow mode")
	partitions := flag.Int("partitions", 1, "evaluate the corpus as N partitions through the two-level merge")
	partitionMode := flag.String("partition-mode", "split",
		"how -partitions produces partitions: 'split' (row-range views, byte-identical to the unsplit run) or 'independent' (disjoint RNG sub-streams, one dataset per simulated crawl)")
	plan := flag.Bool("plan", false, "print the partition-plan summary")
	spill := flag.String("spill", "", "write the corpus to this directory as a disk-backed partition store instead of evaluating it")
	corpus := flag.String("corpus", "", "evaluate a previously spilled partition store out of core (directory with manifest.json)")
	workersAt := flag.String("workers-at", "", "schedule -corpus partitions onto bskyworker daemons (comma-separated host:port list, or 'loopback[:N]' for in-process workers)")
	shipBlocks := flag.Bool("ship-blocks", false, "stream partition block frames to remote workers instead of sending a store reference")
	noSpeculate := flag.Bool("no-speculate", false, "disable speculative re-execution of straggling partitions on idle workers")
	scenarioName := flag.String("scenario", "", "run a named fault-injection scenario end-to-end and judge its assertion ('list' prints the registry)")
	var inputs []inputSpec
	flag.Func("input", "independent corpus spec 'seed=S[,scale=C]' (repeatable); evaluates all inputs as one federated corpus", func(s string) error {
		var spec inputSpec
		for _, kv := range strings.Split(s, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return fmt.Errorf("bad -input field %q (want key=value)", kv)
			}
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return fmt.Errorf("bad -input value %q: %w", kv, err)
			}
			switch strings.TrimSpace(k) {
			case "seed":
				spec.seed, spec.hasSeed = n, true
			case "scale":
				spec.scale, spec.hasScale = int(n), true
			default:
				return fmt.Errorf("unknown -input key %q", k)
			}
		}
		inputs = append(inputs, spec)
		return nil
	})
	flag.Parse()
	// Fill omitted -input fields from -seed/-scale only after the whole
	// command line has parsed: defaults must not depend on flag order.
	for i := range inputs {
		if !inputs[i].hasSeed {
			inputs[i].seed = *seed
		}
		if !inputs[i].hasScale {
			inputs[i].scale = *scale
		}
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	print := func(reports []*analysis.Report) {
		for _, r := range reports {
			if len(want) > 0 && !want[r.ID] {
				continue
			}
			fmt.Println(r.String())
		}
	}

	if *scenarioName != "" {
		if err := runScenario(*scenarioName, *workers, print); err != nil {
			fatal(err)
		}
		return
	}
	if *spill != "" && *corpus != "" {
		fatal(fmt.Errorf("-spill and -corpus are mutually exclusive"))
	}
	if *follow && (*spill != "" || *corpus != "") {
		fatal(fmt.Errorf("-follow streams live sequencers; it does not combine with -spill/-corpus"))
	}
	if *workersAt != "" && *corpus == "" {
		fatal(fmt.Errorf("-workers-at schedules a spilled store; combine it with -corpus DIR"))
	}
	if *corpus != "" {
		opts := schedOpts{shipBlocks: *shipBlocks, noSpeculate: *noSpeculate}
		if err := runCorpus(*corpus, *plan, *workers, *workersAt, opts, print); err != nil {
			fatal(err)
		}
		return
	}
	if *spill != "" {
		if err := runSpill(*spill, inputs, *partitions, *partitionMode, *scale, *seed, *workers); err != nil {
			fatal(err)
		}
		return
	}

	parts, manifest, err := buildCorpus(inputs, *partitions, *partitionMode, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	partitioned := manifest != nil
	if *plan {
		// Planning query only: print the manifest summary and stop
		// before paying for any traversal.
		if manifest == nil {
			manifest = core.BuildManifest(parts, parts[0].Scale, *seed, true)
		}
		fmt.Print(manifest.Plan())
		return
	}
	if partitioned && len(manifest.Partitions) > 1 {
		fmt.Print(manifest.Plan())
		fmt.Println()
	}

	if *follow {
		if err := runFollow(parts, manifest, *workers, *snapEvery, print); err != nil {
			fatal(err)
		}
		return
	}

	var reports []*analysis.Report
	switch {
	case partitioned:
		if reports, err = analysis.RunAllPartitioned(parts, manifest, *workers); err != nil {
			fatal(err)
		}
	default:
		reports = analysis.RunAll(parts[0], *workers)
	}
	print(reports)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bskyanalyze:", err)
	os.Exit(1)
}

// runScenario runs one registered fault-injection scenario end-to-end
// (baseline, transformed golden batch, faulted stream replay), judges
// its assertion, and prints the transformed corpus's tables. A failed
// assertion is a command failure — the smoke gate CI relies on.
func runScenario(name string, workers int, print func([]*analysis.Report)) error {
	if name == "list" {
		for _, s := range scenario.All() {
			fmt.Printf("%-16s %-14s %s\n", s.Name, s.Class, s.Description)
		}
		return nil
	}
	s, ok := scenario.Get(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -scenario list)", name)
	}
	fmt.Printf("scenario %s (%s): %s\n", s.Name, s.Class, s.Description)
	r, err := scenario.Run(s, workers)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d records in %d firehose + %d labeler frames; backlog high-water %d, final %d\n",
		r.Records(), r.FireFrames, r.LabelFrames, r.BacklogHighWater, r.FinalBacklog)
	if r.StreamErr != nil {
		fmt.Println("stream run failed loudly:", r.StreamErr)
	}
	if err := s.Assert(r); err != nil {
		return fmt.Errorf("assertion FAILED: %w", err)
	}
	fmt.Println("assertion passed")
	fmt.Println()
	print(r.Batch)
	return nil
}

// buildCorpus materializes the requested corpus. The manifest is nil
// for a plain single-dataset run (the unpartitioned fast path).
func buildCorpus(inputs []inputSpec, partitions int, mode string, scale int, seed int64) ([]*core.Dataset, *core.Manifest, error) {
	switch {
	case len(inputs) > 0:
		// Federated: independently generated corpora, partition-local
		// indexes, rebased at merge time. Scales must agree — scale
		// drives every scale-derived rendering (S4's title, the S9
		// bandwidth projection), which has no meaning for a mixed-scale
		// union.
		for _, spec := range inputs[1:] {
			if spec.scale != inputs[0].scale {
				return nil, nil, fmt.Errorf("federated inputs disagree on scale (%d vs %d); regenerate at one scale", inputs[0].scale, spec.scale)
			}
		}
		parts := make([]*core.Dataset, len(inputs))
		for i, spec := range inputs {
			parts[i] = synth.Generate(synth.Config{Scale: spec.scale, Seed: spec.seed})
		}
		m := core.BuildManifest(parts, inputs[0].scale, inputs[0].seed, false)
		for i, spec := range inputs {
			m.Partitions[i].Seed = spec.seed
		}
		return parts, m, nil
	case partitions > 1 && mode == "independent":
		parts, m := synth.GeneratePartitioned(synth.Config{Scale: scale, Seed: seed}, partitions)
		return parts, m, nil
	case partitions > 1 && mode == "split":
		parts, m := core.Split(synth.Generate(synth.Config{Scale: scale, Seed: seed}), partitions)
		m.Seed = seed
		return parts, m, nil
	case partitions > 1:
		return nil, nil, fmt.Errorf("unknown -partition-mode %q (want split or independent)", mode)
	default:
		return []*core.Dataset{synth.Generate(synth.Config{Scale: scale, Seed: seed})}, nil, nil
	}
}

// runSpill writes the corpus the generation flags describe to dir as a
// disk-backed partition store. Independent partitions spill as they
// are generated (bounded memory: one resident partition per worker);
// split views and federated inputs materialize first — a split is a
// view of one monolith by construction.
func runSpill(dir string, inputs []inputSpec, partitions int, mode string, scale int, seed int64, workers int) error {
	var m *core.Manifest
	// Same gate as buildCorpus: partitions == 1 means the plain
	// monolith regardless of mode, so spilling and evaluating the same
	// flags always describe the same corpus.
	if len(inputs) == 0 && partitions > 1 && mode == "independent" {
		var err error
		if m, err = synth.GeneratePartitionedTo(synth.Config{Scale: scale, Seed: seed}, partitions, dir, workers); err != nil {
			return err
		}
	} else {
		parts, manifest, err := buildCorpus(inputs, partitions, mode, scale, seed)
		if err != nil {
			return err
		}
		if manifest == nil {
			manifest = core.BuildManifest(parts, parts[0].Scale, seed, true)
		}
		if err := core.WriteCorpus(dir, parts, manifest); err != nil {
			return err
		}
		m = manifest
	}
	fmt.Print(m.Plan())
	fmt.Printf("spilled %d partition(s) to %s\n", len(m.Partitions), dir)
	return nil
}

// schedOpts carries the elastic-scheduler knobs from the command line.
type schedOpts struct {
	shipBlocks  bool
	noSpeculate bool
}

// runCorpus evaluates a previously spilled partition store out of
// core: every partition streams from disk block by block through the
// two-level merge, byte-identical to the in-memory evaluation. With
// workersAt set, the partitions are placed on evaluation workers
// instead (level-one merges run remotely, shard state folds locally) —
// same output, by the remote-parity contract.
func runCorpus(dir string, plan bool, workers int, workersAt string, opts schedOpts, print func([]*analysis.Report)) error {
	c, err := core.OpenCorpus(dir)
	if err != nil {
		return err
	}
	if plan {
		fmt.Print(c.Manifest.Plan())
		return nil
	}
	if len(c.Manifest.Partitions) > 1 {
		fmt.Print(c.Manifest.Plan())
		fmt.Println()
	}
	var reports []*analysis.Report
	if workersAt != "" {
		pool, err := buildWorkers(workersAt)
		if err != nil {
			return err
		}
		s := sched.New(c, pool...)
		s.ShipBlocks = opts.shipBlocks
		if opts.noSpeculate {
			s.SpeculateAfter = -1
		}
		reports, err = s.RunAll(workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "sched:", s.Stats.Summary())
	} else if reports, err = analysis.RunAllDisk(c, workers); err != nil {
		return err
	}
	print(reports)
	return nil
}

// buildWorkers parses -workers-at: "loopback[:N]" spawns N in-process
// workers (default 2) running the full wire codec; anything else is a
// comma-separated list of bskyworker addresses.
func buildWorkers(spec string) ([]sched.Worker, error) {
	if rest, ok := strings.CutPrefix(spec, "loopback"); ok {
		n := 2
		if cnt, ok := strings.CutPrefix(rest, ":"); ok {
			v, err := strconv.Atoi(cnt)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad -workers-at %q (want loopback[:N])", spec)
			}
			n = v
		} else if rest != "" {
			return nil, fmt.Errorf("bad -workers-at %q (want loopback[:N] or host:port,...)", spec)
		}
		pool := make([]sched.Worker, 0, n)
		for i := 0; i < n; i++ {
			pool = append(pool, &sched.Loopback{Server: &sched.Server{}, Label: fmt.Sprintf("loopback-%d", i)})
		}
		return pool, nil
	}
	var pool []sched.Worker
	for _, addr := range strings.Split(spec, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			pool = append(pool, sched.Dial(addr))
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("-workers-at %q names no workers", spec)
	}
	return pool, nil
}

// runFollow replays every partition through its own firehose + labeler
// sequencer pair and drives the engine from the live block channels.
// Replays and consumption run concurrently over draining sequencers,
// so each partition's frame backlog holds only its consumer's lag —
// never a second full copy of the corpus. With more than one partition
// the engine folds the per-partition stream states through the
// cross-partition merge, and snapshots are merged stop-the-world
// snapshots across all partitions.
func runFollow(parts []*core.Dataset, manifest *core.Manifest, workers, snapEvery int, print func([]*analysis.Report)) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if manifest == nil {
		manifest = core.BuildManifest(parts, parts[0].Scale, 0, true)
	}

	srcs := make([]analysis.Source, len(parts))
	errChans := make([]<-chan error, len(parts))
	replayErr := make(chan error, len(parts))
	for k, p := range parts {
		fire := events.NewSequencer(0, 0)
		labeler := events.NewSequencer(0, 0)
		blocks, errs := core.DrainSequencers(ctx, fire, labeler)
		go func(p *core.Dataset) { replayErr <- synth.Replay(p, fire, labeler, 0) }(p)
		srcs[k] = &analysis.StreamSource{Blocks: blocks, Base: manifest.Partitions[k].Base}
		errChans[k] = errs
	}
	src := &analysis.MultiSource{
		Sources:       srcs,
		Manifest:      manifest,
		SnapshotEvery: snapEvery,
		OnSnapshot: func(records int, reports []*analysis.Report) {
			fmt.Printf("==== snapshot after %d records ====\n\n", records)
			print(analysis.Canonicalize(reports))
		},
	}
	reports, err := analysis.NewFullEngine().Workers(workers).RunSource(src)
	if err != nil {
		return err
	}
	for range parts {
		if err := <-replayErr; err != nil {
			return err
		}
	}
	for _, errs := range errChans {
		for err := range errs {
			if err != nil {
				return err
			}
		}
	}
	fmt.Println("==== final (end of stream) ====")
	fmt.Println()
	print(analysis.Canonicalize(reports))
	return nil
}
