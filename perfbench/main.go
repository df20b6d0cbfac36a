// Command perfbench is the repository benchmark. It runs one of four
// analysis workloads end to end through the layers' public functions,
// checks the rendered report bytes of every run against a reference
// computed in process for the same (seed, scale), and prints one JSON
// result line last on standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh -workload NAME -seed N -seconds S -trace 0|1
//
// run.sh builds this package into .bench_build/ and runs it from the
// repository root; everything a run writes stays under .bench_build/.
// BENCHMARK.json at the repository root names the workloads and the
// metrics; README-level detail on each metric lives in the doc
// comments of the files that compute it:
//
//   - workloads.go: the four workloads, their set-up and their runs;
//   - follow.go: the paced replay behind follow-paced;
//   - trace.go: the traced run that yields the per-layer metrics;
//   - predictions.json: which end-to-end metric, on which workload,
//     each per-layer metric should move.
//
// The end-to-end metrics come from untraced runs. records_per_ref_cpu_s
// is the records an iteration evaluates (follow-paced: delivers) per
// second of the CPU time the process spent on it, and peak_heap_mb the
// iteration's peak heap above a GC'd baseline, each the median over
// iterations. setup_s is the median CPU time of the repeated set-ups.
//
// Both times are the process's user plus system time, in reference
// seconds (stats.go): each iteration and each set-up is preceded by a
// fixed reference kernel, and its CPU time is scaled by the kernel's,
// so that the host's drifting speed cancels. On a shared 2-core guest
// the hypervisor's CPU steal swings wall time by up to 2x from one
// minute to the next, and even unscaled CPU time by up to 1.6x between
// a busy and an idle host. A change that only spreads work over more
// cores does not move these metrics; the run record keeps every
// iteration's wall time, CPU time and kernel time, and the median
// wall-time and unscaled CPU-time throughput. follow-paced's frame lag
// (due time to the engine taking the block) follows steal like any
// wall time, so it is a per-layer metric of the traced run
// (core.stream_lag_p50_ms, core.stream_lag_p99_ms) and, over all
// replays, part of the untraced run's record.
//
// With -trace 0 the run is untraced and reports the end-to-end
// metrics. With -trace 1 it runs the traced tour instead: every
// workload once untraced and once under spans, plus the layer probes,
// and it reports the per-layer metrics. The workload flag then only
// names the result file; the tour is the same for every workload, so
// every per-layer metric is measured on every traced run.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Sizes fixed by the benchmark definition; the environment stamp
// records them with every result.
const (
	// scale divides the paper's absolute counts: scale 200 is about
	// 311k records.
	scale = 200
	// rate is follow-paced's offered load in frames per second: a
	// replay lasts about 4.9 s, so a 20 s run holds four, and the
	// generator mostly keeps to schedule on a 2-core guest (label
	// frames, the costliest kind, push its 99th-percentile lateness to
	// about 3 ms of the 4 ms interval).
	rate = 250
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
	// minIters is the fewest timed iterations a run makes, however
	// long they take.
	minIters = 3
)

// Everything a run writes stays under buildDir, which run.sh also
// uses for the Go build cache and the binary.
const (
	buildDir = ".bench_build"
	outDir   = ".bench_build/out"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp identifies where and on what a number was taken, so that it
// is only compared with numbers from the same machine and code.
type envStamp struct {
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Scale      int     `json:"scale"`
	Seed       int64   `json:"seed"`
	RateHz     float64 `json:"offered_frames_per_s"`
	Workload   string  `json:"workload"`
	Seconds    int     `json:"seconds"`
	Trace      int     `json:"trace"`
	Started    string  `json:"started"`
}

// record is the run's full account: the environment stamp, every set-up
// and iteration, and for traced runs the spans. It is printed on the
// line before the result and written to the out directory.
type record struct {
	Env     envStamp       `json:"env"`
	Setups  []setupRecord  `json:"setups"`
	Runs    []*runRecord   `json:"runs"`
	Summary map[string]any `json:"summary,omitempty"`
	Spans   []span         `json:"spans,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 7, "seed of the generated corpus")
	seconds := flag.Int("seconds", 10, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced tour and reports per-layer metrics")
	flag.Parse()

	if !validWorkload(*name) {
		log.Fatalf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames, ", "))
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds < 1 {
		log.Fatal("-seconds must be positive")
	}
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		log.Fatal(err)
	}
}

// run does one benchmark run in the current directory, which must be
// the repository root, and prints the record and the result.
func run(name string, seed int64, seconds, trace int) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cfg := config{Scale: scale, Seed: seed, Rate: rate, Work: work}
	rec := &record{Env: stamp(cfg, name, seconds, trace)}
	cpu := readCPU()
	var res *result
	if trace == 1 {
		res, err = runTour(cfg, rec)
	} else {
		res, err = runTimed(cfg, name, time.Duration(seconds)*time.Second, rec)
	}
	if err != nil {
		return err
	}
	if rec.Summary == nil {
		rec.Summary = map[string]any{}
	}
	if steal, ok := cpu.stealShare(readCPU()); ok {
		rec.Summary["cpu_steal_share"] = steal
	}

	enc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := os.WriteFile(file, append(enc, '\n'), 0o644); err != nil {
		return err
	}
	if trace == 1 {
		// Spans go to the file only; the stdout record stays one
		// readable line.
		rec.Spans = nil
		if enc, err = json.Marshal(rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	fmt.Println(string(line))
	return nil
}

// stamp builds the environment stamp. The commit comes from the
// binary's VCS stamp when it was built inside a git work tree; the
// source hash identifies the code everywhere else.
func stamp(cfg config, name string, seconds, trace int) envStamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" && commit != "unknown" {
				commit += "+modified"
			}
		}
	}
	return envStamp{
		Commit:     commit,
		SourceHash: sourceHash("."),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		RateHz:     cfg.Rate,
		Workload:   name,
		Seconds:    seconds,
		Trace:      trace,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceHash digests every .go file and go.mod of the checkout in path
// order, skipping the build directory.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
