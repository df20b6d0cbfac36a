// bskybench measures the repo's disk and wire hot paths — block
// decode, collector ingest, shipped partition bytes — and writes one BENCH_<date>.json trajectory point. CI runs
// it on each push and uploads the JSON as an artifact, so the decode
// throughput and shipped-bytes trajectory is machine-readable across
// the project's history; a baseline point is checked in at the repo
// root.
//
// Usage:
//
//	bskybench [-scale N] [-seed S] [-reps R] [-out FILE]
//	bskybench -scenario NAME,... | -scenario all [-out FILE]
//
// Each measure runs R times (default 5); the JSON records the best
// wall time (ns_op), derived throughput (mb_per_s, records_per_s),
// the encoded byte volume (bytes), and the peak heap growth over a
// GC'd baseline (peak_heap_mb). -out defaults to BENCH_<date>.json in
// the working directory.
//
// With -scenario, the named stress scenarios (internal/scenario) are
// the workload instead: each runs end to end — generate, transform,
// batch golden, faulted streaming replay, assertion — and contributes
// one scenario/<name> trajectory point (records/s, peak heap, and the
// stream-backlog high-water mark). A failed assertion aborts the
// benchmark with a nonzero exit, so CI can use it as a smoke gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/scenario"
	"blueskies/internal/sched"
	"blueskies/internal/synth"
)

// Result is one measure's trajectory point. Fields are omitted where
// a measure has no meaningful value for them.
type Result struct {
	Name        string  `json:"name"`
	NsOp        int64   `json:"ns_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	RecordsPerS float64 `json:"records_per_s,omitempty"`
	Bytes       int     `json:"bytes,omitempty"`
	PeakHeapMB  float64 `json:"peak_heap_mb,omitempty"`
	// Elastic-scheduler counters (remote/* measures only).
	ShippedBytes int64 `json:"shipped_bytes,omitempty"`
	Steals       int64 `json:"steals,omitempty"`
	Speculations int64 `json:"speculations,omitempty"`
	SpecWins     int64 `json:"spec_wins,omitempty"`
	CacheHits    int64 `json:"cache_hits,omitempty"`
	// Stream-backpressure high-water mark (scenario/* measures only):
	// the peak combined frame count the sequencers retained during the
	// faulted replay.
	BacklogHighWater int `json:"backlog_high_water,omitempty"`
}

// Trajectory is the file's top-level shape.
type Trajectory struct {
	Date    string   `json:"date"`
	Go      string   `json:"go"`
	Scale   int      `json:"scale"`
	Seed    int64    `json:"seed"`
	Results []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bskybench: ")
	scale := flag.Int("scale", 2000, "synthetic corpus scale")
	seed := flag.Int64("seed", 1, "synthetic corpus seed")
	reps := flag.Int("reps", 5, "repetitions per measure (best time wins)")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	scenarios := flag.String("scenario", "", "comma-separated stress scenarios to measure instead of the disk/wire suite ('all' = every registered scenario)")
	baseline := flag.String("baseline", "", "prior trajectory FILE to gate against: exit nonzero if any shared decode/ingest throughput regresses >20%")
	flag.Parse()

	var results []Result
	if *scenarios != "" {
		results = scenarioMeasures(*scenarios)
	} else {
		results = defaultMeasures(*scale, *seed, *reps)
	}

	now := time.Now()
	tr := &Trajectory{
		Date:    now.Format("2006-01-02"),
		Go:      runtime.Version(),
		Scale:   *scale,
		Seed:    *seed,
		Results: results,
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", tr.Date)
	}
	enc, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		line := fmt.Sprintf("%-14s", r.Name)
		if r.NsOp > 0 {
			line += fmt.Sprintf("  %12d ns/op", r.NsOp)
		}
		if r.MBPerS > 0 {
			line += fmt.Sprintf("  %8.2f MB/s", r.MBPerS)
		}
		if r.RecordsPerS > 0 {
			line += fmt.Sprintf("  %10.0f records/s", r.RecordsPerS)
		}
		if r.Bytes > 0 {
			line += fmt.Sprintf("  %9d bytes", r.Bytes)
		}
		if r.PeakHeapMB > 0 {
			line += fmt.Sprintf("  %7.1f peak-heap-MB", r.PeakHeapMB)
		}
		if r.ShippedBytes > 0 || strings.HasPrefix(r.Name, "remote/") {
			line += fmt.Sprintf("  %9d shipped-bytes", r.ShippedBytes)
		}
		if r.Steals > 0 {
			line += fmt.Sprintf("  %d steals", r.Steals)
		}
		if r.Speculations > 0 {
			line += fmt.Sprintf("  %d speculations (%d won)", r.Speculations, r.SpecWins)
		}
		if r.CacheHits > 0 {
			line += fmt.Sprintf("  %d cache-hits", r.CacheHits)
		}
		if r.BacklogHighWater > 0 {
			line += fmt.Sprintf("  %d backlog-high-water", r.BacklogHighWater)
		}
		fmt.Println(line)
	}
	log.Printf("wrote %s", path)
	if *baseline != "" {
		if err := checkBaseline(*baseline, results); err != nil {
			log.Fatal(err)
		}
	}
}

// checkBaseline gates the run against a prior trajectory file: every
// decode/ingest throughput present in both runs must be at least 80%
// of the baseline's. The trajectory point is already written when the
// gate fires, so CI still uploads the regressed measurement. Measures
// only one side has (new formats, renamed points) are skipped — the
// gate compares history, it does not pin the suite's shape.
func checkBaseline(path string, results []Result) error {
	enc, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Trajectory
	if err := json.Unmarshal(enc, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	prior := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		prior[r.Name] = r
	}
	const floor = 0.8
	var regressed []string
	check := func(name, metric string, cur, was float64) {
		if cur <= 0 || was <= 0 {
			return
		}
		verdict := "ok"
		if cur < was*floor {
			verdict = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s %s %.0f -> %.0f (%.0f%%)", name, metric, was, cur, 100*cur/was))
		}
		log.Printf("baseline %-14s %-13s %12.0f -> %12.0f  %s", name, metric, was, cur, verdict)
	}
	for _, r := range results {
		p, ok := prior[r.Name]
		if !ok {
			continue
		}
		check(r.Name, "mb_per_s", r.MBPerS, p.MBPerS)
		check(r.Name, "records_per_s", r.RecordsPerS, p.RecordsPerS)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("throughput regressed >%.0f%% vs %s:\n  %s",
			100*(1-floor), path, strings.Join(regressed, "\n  "))
	}
	return nil
}

// defaultMeasures runs the disk and wire suite — decode, ingest,
// ship-bytes, then the elastic-scheduler regimes — over one generated
// corpus.
func defaultMeasures(scaleN int, seedN int64, repsN int) []Result {
	ds := synth.Generate(synth.Config{Scale: scaleN, Seed: seedN})
	parts, m := core.Split(ds, 1)
	records := ds.Counts().Total()
	info := m.Partitions[0]

	tmp, err := os.MkdirTemp("", "bskybench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	dir := filepath.Join(tmp, "store")
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, core.PartitionFileName(0)))
	if err != nil {
		log.Fatal(err)
	}
	mb := float64(len(data)) / (1 << 20)
	// Point names keep the format suffix so trajectories stay
	// comparable with the checked-in history.
	v := fmt.Sprintf("v%d", core.DiskFormatVersion)

	var results []Result
	nsOp, peak := measure(repsN, func() { drain(data, records) })
	results = append(results, Result{
		Name:       "decode/" + v,
		NsOp:       nsOp,
		MBPerS:     mb / (float64(nsOp) / 1e9),
		Bytes:      len(data),
		PeakHeapMB: peak,
	})

	nsOp, peak = measure(repsN, func() { ingest(data, info, records) })
	results = append(results, Result{
		Name:        "ingest/" + v,
		NsOp:        nsOp,
		RecordsPerS: float64(records) / (float64(nsOp) / 1e9),
		Bytes:       len(data),
		PeakHeapMB:  peak,
	})

	// The shipped form is the partition file after the scheduler's
	// ship-time per-frame LZ pass, so its size is the per-partition
	// wire cost.
	shipped, err := core.CompressPartitionBlocks(data)
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, Result{
		Name:  "ship-bytes/" + v,
		Bytes: len(shipped),
	})

	return append(results, remoteMeasures(ds, tmp)...)
}

// scenarioMeasures runs each named stress scenario end to end under
// the heap sampler and turns it into one trajectory point. Any
// infrastructure error or failed scenario assertion is fatal — the
// measure doubles as CI's scenario smoke gate. Scenario runs are
// single-shot (not best-of-R): each run regenerates and replays its
// whole corpus, so the wall time is workload-dominated.
func scenarioMeasures(spec string) []Result {
	var list []*scenario.Scenario
	if spec == "all" {
		list = scenario.All()
	} else {
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			s, ok := scenario.Get(name)
			if !ok {
				log.Fatalf("unknown scenario %q (known: %v)", name, scenario.Names())
			}
			list = append(list, s)
		}
	}
	if len(list) == 0 {
		log.Fatal("-scenario matched no scenarios")
	}
	var results []Result
	for _, s := range list {
		var r *scenario.Result
		var runErr error
		peak, wall := peakHeapDuring(func() { r, runErr = scenario.Run(s, 0) })
		if runErr != nil {
			log.Fatalf("scenario %s: %v", s.Name, runErr)
		}
		if err := s.Assert(r); err != nil {
			log.Fatalf("scenario %s: assertion FAILED: %v", s.Name, err)
		}
		results = append(results, Result{
			Name:             "scenario/" + s.Name,
			NsOp:             wall.Nanoseconds(),
			RecordsPerS:      float64(r.Records()) / wall.Seconds(),
			PeakHeapMB:       peak,
			BacklogHighWater: r.BacklogHighWater,
		})
	}
	return results
}

// remoteMeasures runs the elastic scheduler (DESIGN.md §12) over a
// four-partition spill of the corpus and records one trajectory point
// per scheduling regime:
//
//	remote/cold            ship-blocks run against empty worker caches
//	remote/warm-cache      identical re-run over the same workers; the
//	                       content-addressed caches should absorb ~all
//	                       payload bytes (target: <1% of cold)
//	remote/straggler       one worker 10× slower than the cold run;
//	                       speculation re-executes its stuck units
//	remote/straggler-nospec  the same straggler with speculation off —
//	                       the contrast shows what speculation saves
//
// Remote measures run once (not best-of-R): the warm point depends on
// cache state the cold point creates, and the straggler points are
// dominated by an injected delay, not scheduler jitter.
func remoteMeasures(ds *core.Dataset, tmp string) []Result {
	dir := filepath.Join(tmp, "remote")
	parts, m := core.Split(ds, 4)
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		log.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		log.Fatal(err)
	}

	newCache := func() *sched.BlockCache {
		bc, err := sched.NewBlockCache("", 0)
		if err != nil {
			log.Fatal(err)
		}
		return bc
	}
	pool := []sched.Worker{
		&sched.Loopback{Server: &sched.Server{Cache: newCache()}, Label: "w0"},
		&sched.Loopback{Server: &sched.Server{Cache: newCache()}, Label: "w1"},
	}
	run := func(name string, s *sched.Scheduler) (Result, time.Duration) {
		s.ShipBlocks = true
		start := time.Now()
		if _, err := s.RunAll(0); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		wall := time.Since(start)
		return Result{
			Name:         name,
			NsOp:         wall.Nanoseconds(),
			ShippedBytes: s.Stats.ShippedBytes.Load(),
			Steals:       s.Stats.Steals.Load(),
			Speculations: s.Stats.Speculations.Load(),
			SpecWins:     s.Stats.SpecWins.Load(),
			CacheHits:    s.Stats.CacheHits.Load(),
		}, wall
	}

	cold, coldWall := run("remote/cold", sched.New(c, pool...))
	warm, _ := run("remote/warm-cache", sched.New(c, pool...))
	if cold.ShippedBytes > 0 && warm.ShippedBytes*100 >= cold.ShippedBytes {
		log.Printf("WARNING: warm-cache run shipped %d of %d cold bytes (>= 1%%)", warm.ShippedBytes, cold.ShippedBytes)
	}

	// A straggler 10× slower than the whole cold run, bounded so the
	// no-speculation contrast point stays affordable.
	delay := min(max(10*coldWall, 500*time.Millisecond), 3*time.Second)
	newStragglerPool := func() []sched.Worker {
		return []sched.Worker{
			&sched.Loopback{Server: &sched.Server{}, Label: "w0"},
			&slowWorker{Loopback: &sched.Loopback{Server: &sched.Server{}, Label: "w1-slow"}, delay: delay},
		}
	}
	spec, _ := run("remote/straggler", sched.New(c, newStragglerPool()...))
	nos := sched.New(c, newStragglerPool()...)
	nos.SpeculateAfter = -1
	nospec, _ := run("remote/straggler-nospec", nos)

	return []Result{cold, warm, spec, nospec}
}

// slowWorker delays every evaluation — the injected straggler. The
// sleep honors cancellation so a superseded speculative duplicate
// releases the scheduler's drain immediately, as a real transport
// would when the losing RPC is torn down.
type slowWorker struct {
	*sched.Loopback
	delay time.Duration
}

func (w *slowWorker) Eval(ctx context.Context, body []byte) ([]byte, error) {
	select {
	case <-time.After(w.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return w.Loopback.Eval(ctx, body)
}

// drain decodes every block of one partition's framed bytes and
// cross-checks the record count — the raw decode path, no analysis.
func drain(data []byte, want int) {
	pr, err := core.NewPartitionReader(bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	got := 0
	for {
		blk, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		got += len(blk.Users) + len(blk.Posts) + len(blk.Days) +
			len(blk.Labels) + len(blk.FeedGens) + len(blk.Domains) + len(blk.HandleUpdates)
	}
	if got != want {
		log.Fatalf("decoded %d records, want %d", got, want)
	}
}

// ingest runs the full engine's level-one traversal over the framed
// bytes — decode plus accumulation, the collector's steady state.
func ingest(data []byte, info core.PartitionInfo, want int) {
	src := &analysis.ReaderSource{
		Open: func() (*core.PartitionReader, error) {
			return core.NewPartitionReader(bytes.NewReader(data))
		},
		Base:    info.Base,
		Records: &info.Records,
		Name:    "bskybench blocks",
	}
	world, _, _, err := analysis.NewFullEngine().RunLevelOne(src)
	if err != nil {
		log.Fatal(err)
	}
	if got := world.Counts().Total(); got != want {
		log.Fatalf("ingested %d records, want %d", got, want)
	}
}

// measure runs fn reps times and returns the best wall time plus the
// largest peak heap growth observed across repetitions.
func measure(reps int, fn func()) (nsOp int64, peakMB float64) {
	best := int64(math.MaxInt64)
	for i := 0; i < reps; i++ {
		p, d := peakHeapDuring(fn)
		best = min(best, d.Nanoseconds())
		peakMB = max(peakMB, p)
	}
	return best, peakMB
}

// peakHeapDuring GCs to a baseline, times fn under a HeapAlloc
// sampler, and returns the peak growth over the baseline in MB plus
// the wall time — the same residency-ceiling measure the repo's
// disk benchmarks report.
func peakHeapDuring(fn func()) (float64, time.Duration) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	peak.Store(base.HeapAlloc)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				for {
					old := peak.Load()
					if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	close(stop)
	<-done
	return float64(peak.Load()-base.HeapAlloc) / (1 << 20), elapsed
}
