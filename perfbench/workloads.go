package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/sched"
	"blueskies/internal/synth"
)

// Why each workload exists (BENCHMARK.json carries the one-line form):
//
//   - inmem-full is the default bskyanalyze run: synth.Generate, then
//     analysis.RunAll over the in-memory DatasetSource, then render.
//     Generation dominates it, and core and sched do nothing.
//   - corpus-scan opens a single-partition store spilled during set-up
//     and runs analysis.RunAllDisk: read and decode dominate, there is
//     no generation, and one partition leaves a core idle.
//   - remote-cold runs the elastic scheduler with ShipBlocks over a
//     four-partition store, two Loopback workers with fresh in-memory
//     block caches each run: the only workload on sched, LZ ship
//     compression and the partition-state codec.
//   - follow-paced replays the corpus at a fixed offered frame rate
//     (open loop) into firehose and labeler sequencers and folds the
//     drained stream with periodic merged snapshots: the only workload
//     on the stream codec, the sequencer backlog and snapshot merges.
var workloadNames = []string{"inmem-full", "corpus-scan", "remote-cold", "follow-paced"}

func validWorkload(name string) bool { return slices.Contains(workloadNames, name) }

// config is what every workload is built from.
type config struct {
	Scale int
	Seed  int64
	Rate  float64 // follow-paced offered frames per second
	Work  string  // scratch directory inside the checkout
}

func (c config) synth() synth.Config { return synth.Config{Scale: c.Scale, Seed: c.Seed} }

// workload is one benchmark workload.
type workload interface {
	// prepare is the program set-up that follows generation: spill,
	// open and worker-pool construction where the workload has them.
	// It keeps what the iterations need and drops the dataset
	// otherwise. It returns the reference report text when computing
	// it is the workload's set-up, and "" when it is not.
	prepare(ds *core.Dataset, tr *tracer, parent int) (ref string, err error)
	// iterate runs the workload once and returns its record with the
	// rendered report text. tr, when non-nil, receives spans under
	// parent.
	iterate(tr *tracer, parent int) (*runRecord, error)
}

func newWorkload(name string, cfg config) workload {
	switch name {
	case "inmem-full":
		return &inmemFull{cfg: cfg}
	case "corpus-scan":
		return &corpusScan{dir: filepath.Join(cfg.Work, "scan")}
	case "remote-cold":
		return &remoteCold{dir: filepath.Join(cfg.Work, "remote")}
	case "follow-paced":
		return &followPaced{rate: cfg.Rate}
	}
	panic("unknown workload " + name)
}

// runRecord is one iteration's account.
type runRecord struct {
	Iter  int     `json:"iter"`
	WallS float64 `json:"wall_s"`
	// CPUS is the process's CPU time over the iteration, UserS plus
	// SysS; KernelS is the reference kernel's CPU time just before it,
	// and RefCPUS is CPUS in reference seconds.
	CPUS    float64 `json:"cpu_s"`
	UserS   float64 `json:"user_s"`
	SysS    float64 `json:"sys_s"`
	KernelS float64 `json:"kernel_s"`
	RefCPUS float64 `json:"ref_cpu_s"`
	Records int     `json:"records"`
	// RecordsPerS is per second of wall time, RecordsPerRefCPUS per
	// reference second of CPU time.
	RecordsPerS       float64 `json:"records_per_s"`
	RecordsPerRefCPUS float64 `json:"records_per_ref_cpu_s"`
	PeakHeapMB        float64 `json:"peak_heap_mb"`
	OK                bool    `json:"ok"`
	Error             string  `json:"error,omitempty"`
	Degraded          bool    `json:"degraded"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests while the iteration ran.
	StealShare float64       `json:"steal_share"`
	Sched      *schedRecord  `json:"sched,omitempty"`
	Follow     *followRecord `json:"follow,omitempty"`

	text string // rendered report set
}

// reference renders the report set the in-memory evaluation produces
// for ds: the bytes every iteration must reproduce.
func reference(ds *core.Dataset) string {
	return analysis.RenderText(analysis.RunAll(ds, 0))
}

// setupRecord is one set-up's account: its wall time, the process's
// CPU time over it, the reference kernel's CPU time just before it, and
// the CPU time in reference seconds.
type setupRecord struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	KernelS float64 `json:"kernel_s"`
	RefCPUS float64 `json:"ref_cpu_s"`
}

// setUp generates the corpus and prepares w setupReps times, timing
// each; it returns the reference text of the generated corpus.
func setUp(cfg config, w workload, tr *tracer, parent int) (setups []setupRecord, ref string, err error) {
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		kernel := refKernel()
		c0 := cpuSeconds()
		start := time.Now()
		var ds *core.Dataset
		tr.doAlloc(parent, "synth.Generate", func() error {
			ds = synth.Generate(cfg.synth())
			return nil
		})
		r, err := w.prepare(ds, tr, parent)
		if err != nil {
			return nil, "", err
		}
		s := setupRecord{WallS: time.Since(start).Seconds(), CPUS: cpuSeconds() - c0, KernelS: kernel}
		s.RefCPUS = refSeconds(s.CPUS, kernel)
		setups = append(setups, s)
		if r != "" {
			ref = r
		}
		if ref == "" {
			ref = reference(ds)
		}
	}
	return setups, ref, nil
}

// runTimed is the untraced run: set-up, one warm-up iteration where
// the workload has state to warm, then iterations until d has passed.
func runTimed(cfg config, name string, d time.Duration, rec *record) (*result, error) {
	w := newWorkload(name, cfg)
	setups, ref, err := setUp(cfg, w, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	rec.Setups = setups
	if err := warmUp(name, w); err != nil {
		return nil, err
	}
	more := func(i int, start time.Time) bool { return i < minIters || time.Since(start) < d }
	if f, ok := w.(*followPaced); ok {
		// A replay lasts as long as its schedule: run as many as fit
		// in d, and at least one.
		n := max(1, int(d/f.length))
		more = func(i int, _ time.Time) bool { return i < n }
	}

	res := &result{Metrics: map[string]metric{}}
	var rates, peaks []float64
	start := time.Now()
	for i := 0; more(i, start); i++ {
		kernel := refKernel()
		h := startHeap()
		cpu := readCPU()
		u0, s0 := cpuTime()
		t := time.Now()
		r, err := w.iterate(nil, 0)
		wall := time.Since(t).Seconds()
		u1, s1 := cpuTime()
		steal, _ := cpu.stealShare(readCPU())
		peak := h.end()
		if r == nil {
			r = &runRecord{}
		}
		r.Iter, r.WallS, r.PeakHeapMB, r.StealShare = i, wall, peak, steal
		r.UserS, r.SysS = u1-u0, s1-s0
		r.CPUS, r.KernelS = r.UserS+r.SysS, kernel
		r.RefCPUS = refSeconds(r.CPUS, kernel)
		r.RecordsPerS = float64(r.Records) / wall
		r.RecordsPerRefCPUS = float64(r.Records) / r.RefCPUS
		check(r, err, ref)
		rec.Runs = append(rec.Runs, r)
		res.Attempted++
		if !r.OK {
			res.Failed++
			continue
		}
		rates = append(rates, r.RecordsPerRefCPUS)
		peaks = append(peaks, peak)
	}
	res.Correct = res.Failed == 0
	if res.Failed == res.Attempted {
		return res, nil // no metric was measured
	}
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.RefCPUS)
	}
	res.Metrics["records_per_ref_cpu_s"] = metric{median(rates), "1/s"}
	res.Metrics["peak_heap_mb"] = metric{median(peaks), "MB"}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	rec.Summary = summarize(rec.Runs)
	return res, nil
}

// warmUp runs one untimed iteration of corpus-scan and remote-cold,
// so the store is read warm and the heap has grown to its working size
// before timing starts. inmem-full's set-up already ran the
// iteration's code, and a replay warms up in its first frames.
func warmUp(name string, w workload) error {
	if name != "corpus-scan" && name != "remote-cold" {
		return nil
	}
	if _, err := w.iterate(nil, 0); err != nil {
		return fmt.Errorf("%s warm-up: %w", name, err)
	}
	return nil
}

// check marks r as passed when the iteration returned no error and
// rendered exactly the reference bytes.
func check(r *runRecord, err error, ref string) {
	switch {
	case err != nil:
		r.Error = err.Error()
	case r.text != ref:
		r.Error = fmt.Sprintf("report bytes differ from the reference (%d vs %d bytes)", len(r.text), len(ref))
	default:
		r.OK = true
	}
}

// summarize condenses the per-iteration records: how many were
// degraded, the figures the end-to-end metrics leave out (throughput
// per wall and per unscaled CPU second, the kernel's time, and
// follow-paced's frame lag over all replays), and the spread of shipped
// bytes across remote-cold runs.
func summarize(runs []*runRecord) map[string]any {
	s := map[string]any{"iterations": len(runs)}
	degraded := 0
	var rates, cpuRates, kernels, lags, shipped []float64
	for _, r := range runs {
		if r.Degraded {
			degraded++
		}
		if !r.OK {
			continue
		}
		rates = append(rates, r.RecordsPerS)
		cpuRates = append(cpuRates, float64(r.Records)/r.CPUS)
		kernels = append(kernels, r.KernelS)
		if r.Follow != nil {
			lags = append(lags, r.Follow.lags...)
		}
		if r.Sched != nil {
			shipped = append(shipped, float64(r.Sched.ShippedBytes))
		}
	}
	s["degraded"] = degraded
	s["wall_records_per_s_p50"] = median(rates)
	s["cpu_records_per_s_p50"] = median(cpuRates)
	s["kernel_s_p50"] = median(kernels)
	if len(lags) > 0 {
		s["frame_lag_ms"] = map[string]float64{
			"p50": quantile(lags, 0.5), "p99": quantile(lags, 0.99), "samples": float64(len(lags)),
		}
	}
	if len(shipped) > 0 {
		s["shipped_bytes"] = map[string]float64{
			"min": slices.Min(shipped), "median": median(shipped), "max": slices.Max(shipped),
		}
	}
	return s
}

// inmemFull generates the corpus, evaluates it in memory and renders.
type inmemFull struct{ cfg config }

// prepare evaluates the generated corpus once: inmem-full has no
// program set-up, so its set-up is the reference evaluation, which
// also warms the iteration's code.
func (w *inmemFull) prepare(ds *core.Dataset, _ *tracer, _ int) (string, error) {
	return reference(ds), nil
}

func (w *inmemFull) iterate(tr *tracer, parent int) (*runRecord, error) {
	var ds *core.Dataset
	var reports []*analysis.Report
	r := &runRecord{}
	tr.doAlloc(parent, "synth.Generate", func() error { ds = synth.Generate(w.cfg.synth()); return nil })
	tr.do(parent, "analysis.RunAll", func() error { reports = analysis.RunAll(ds, 0); return nil })
	tr.do(parent, "analysis.RenderText", func() error { r.text = analysis.RenderText(reports); return nil })
	r.Records = ds.Counts().Total()
	return r, nil
}

// corpusScan evaluates a single-partition store out of core.
type corpusScan struct {
	dir string
	// readers are the traced iteration's partition files.
	readers []*timingReader
}

func (w *corpusScan) prepare(ds *core.Dataset, tr *tracer, parent int) (string, error) {
	_, err := spill(ds, 1, w.dir, tr, parent)
	return "", err
}

func (w *corpusScan) iterate(tr *tracer, parent int) (*runRecord, error) {
	var c *core.Corpus
	if _, err := tr.do(parent, "core.OpenCorpus", func() (err error) {
		c, err = core.OpenCorpus(w.dir)
		return err
	}); err != nil {
		return nil, err
	}
	var reports []*analysis.Report
	var err error
	if tr == nil {
		reports, err = analysis.RunAllDisk(c, 0)
	} else {
		reports, err = w.tracedScan(c, tr, parent)
	}
	if err != nil {
		return nil, err
	}
	r := &runRecord{Records: c.Manifest.Totals().Total()}
	tr.do(parent, "analysis.RenderText", func() error { r.text = analysis.RenderText(reports); return nil })
	return r, nil
}

// tracedScan is RunAllDisk with each partition's level-one traversal
// run as a ReaderSource over a timing reader, under a span.
func (w *corpusScan) tracedScan(c *core.Corpus, tr *tracer, parent int) ([]*analysis.Report, error) {
	ms := &analysis.MultiSource{Manifest: c.Manifest}
	run := tr.begin(parent, "analysis.RunSource")
	w.readers = make([]*timingReader, len(c.Manifest.Partitions))
	defer func() {
		for _, r := range w.readers {
			if r != nil {
				r.f.Close()
			}
		}
	}()
	for k := range c.Manifest.Partitions {
		info := &c.Manifest.Partitions[k]
		rs := &analysis.ReaderSource{
			Open: func() (*core.PartitionReader, error) {
				f, err := os.Open(filepath.Join(c.Dir, core.PartitionFileName(k)))
				if err != nil {
					return nil, err
				}
				w.readers[k] = &timingReader{f: f}
				return core.NewPartitionReader(w.readers[k])
			},
			Base:    info.Base,
			Records: &info.Records,
			Name:    fmt.Sprintf("partition %d", k),
		}
		ms.Sources = append(ms.Sources, &spanSource{Source: rs, tr: tr, parent: run, name: "analysis.LevelOne"})
	}
	reports, err := analysis.NewFullEngine().RunSource(ms)
	tr.end(run)
	if err != nil {
		return nil, err
	}
	return analysis.Canonicalize(reports), nil
}

// remoteCold runs the elastic scheduler over a four-partition store,
// shipping blocks to two loopback workers whose in-memory block caches
// start empty on every iteration.
type remoteCold struct {
	dir string
	c   *core.Corpus
	// traced holds the traced iteration's worker accounts.
	traced []*tracedWorker
	// wall is the traced iteration's RunAll interval.
	wall interval
}

// schedRecord is one remote-cold iteration's scheduler account.
type schedRecord struct {
	Evals        int64    `json:"evals"`
	LocalEvals   int64    `json:"local_evals"`
	Steals       int64    `json:"steals"`
	Speculations int64    `json:"speculations"`
	SpecWins     int64    `json:"spec_wins"`
	CacheHits    int64    `json:"cache_hits"`
	CacheMisses  int64    `json:"cache_misses"`
	Prefetches   int64    `json:"prefetches"`
	ShippedBytes int64    `json:"shipped_bytes"`
	Events       []string `json:"events,omitempty"`
}

func (w *remoteCold) prepare(ds *core.Dataset, tr *tracer, parent int) (_ string, err error) {
	w.c, err = spill(ds, 4, w.dir, tr, parent)
	return "", err
}

// spill splits ds into n row-range partitions, writes them as a store
// in dir and opens it.
func spill(ds *core.Dataset, n int, dir string, tr *tracer, parent int) (c *core.Corpus, err error) {
	parts, m := core.Split(ds, n)
	if _, err := tr.do(parent, "core.WriteCorpus", func() error { return core.WriteCorpus(dir, parts, m) }); err != nil {
		return nil, err
	}
	_, err = tr.do(parent, "core.OpenCorpus", func() (err error) {
		c, err = core.OpenCorpus(dir)
		return err
	})
	return c, err
}

func (w *remoteCold) iterate(tr *tracer, parent int) (*runRecord, error) {
	pool := make([]sched.Worker, 2)
	w.traced = nil
	for i := range pool {
		cache, err := sched.NewBlockCache("", 0)
		if err != nil {
			return nil, err
		}
		lb := &sched.Loopback{Server: &sched.Server{Cache: cache}, Label: fmt.Sprintf("w%d", i)}
		pool[i] = lb
		if tr != nil {
			tw := &tracedWorker{Loopback: lb, tr: tr, parent: parent}
			w.traced = append(w.traced, tw)
			pool[i] = tw
		}
	}
	s := sched.New(w.c, pool...)
	s.ShipBlocks = true
	var mu sync.Mutex
	sr := &schedRecord{}
	s.Logf = func(format string, args ...any) {
		mu.Lock()
		sr.Events = append(sr.Events, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var reports []*analysis.Report
	lo := tr.now()
	_, err := tr.do(parent, "sched.RunAll", func() (err error) {
		reports, err = s.RunAll(0)
		return err
	})
	w.wall = interval{lo, tr.now()}
	st := &s.Stats
	sr.Evals, sr.LocalEvals, sr.Steals = st.Evals.Load(), st.LocalEvals.Load(), st.Steals.Load()
	sr.Speculations, sr.SpecWins = st.Speculations.Load(), st.SpecWins.Load()
	sr.CacheHits, sr.CacheMisses, sr.Prefetches = st.CacheHits.Load(), st.CacheMisses.Load(), st.Prefetches.Load()
	sr.ShippedBytes = st.ShippedBytes.Load()
	r := &runRecord{
		Records:  w.c.Manifest.Totals().Total(),
		Sched:    sr,
		Degraded: sr.LocalEvals > 0 || sr.Speculations > 0 || sr.CacheMisses > 0,
	}
	if err != nil {
		return r, err
	}
	tr.do(parent, "analysis.RenderText", func() error { r.text = analysis.RenderText(reports); return nil })
	return r, nil
}
