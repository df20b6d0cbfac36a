package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/sched"
)

// The traced run. Spans sit only around calls into the layers' public
// API, recorded from this package: the program itself is not
// instrumented. Derived metrics, computed by subtracting one measured
// call from another over the same bytes, are listed in derivedMetrics
// and in the run record.
var derivedMetrics = []string{"analysis.fold_s", "analysis.marshal_s", "sched.coord_s"}

// span is one timed call. Start and End are seconds since the tracer
// began; Run names the workload section the span belongs to.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	AllocMB float64 `json:"alloc_mb,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced iterations run the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Seconds()
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

func (t *tracer) annotate(id int, f func(*span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f(&t.spans[id-1])
}

// do runs fn under a span and returns the span's duration.
func (t *tracer) do(parent int, name string, fn func() error) (float64, error) {
	if t == nil {
		return 0, fn()
	}
	id := t.begin(parent, name)
	err := fn()
	return t.end(id), err
}

// doAlloc is do that also records the bytes the process allocated
// during the call, from MemStats deltas. ReadMemStats stops the world,
// so only the traced run calls it.
func (t *tracer) doAlloc(parent int, name string, fn func() error) (float64, error) {
	if t == nil {
		return 0, fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(parent, name)
	err := fn()
	d := t.end(id)
	runtime.ReadMemStats(&after)
	t.annotate(id, func(s *span) { s.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) })
	return d, err
}

// find returns the spans of run named name, in start order.
func (t *tracer) find(run, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Run == run && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// leaves returns the spans under root (at any depth) that have no
// children of their own.
func (t *tracer) leaves(root int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	under := map[int]bool{root: true}
	hasChild := map[int]bool{}
	for _, s := range t.spans { // children always follow their parent
		if under[s.Parent] {
			under[s.ID] = true
			hasChild[s.Parent] = true
		}
	}
	var out []span
	for _, s := range t.spans {
		if s.ID != root && under[s.ID] && !hasChild[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

// timingReader counts the bytes and the time spent reading a
// partition file — the read half of the read+checksum+decode layer.
type timingReader struct {
	f     *os.File
	busy  time.Duration
	bytes int64
}

func (r *timingReader) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := r.f.Read(p)
	r.busy += time.Since(t)
	r.bytes += int64(n)
	return n, err
}

// spanSource runs an analysis.Source under a span with its
// allocations recorded.
type spanSource struct {
	analysis.Source
	tr     *tracer
	parent int
	name   string
}

func (s *spanSource) Run(accs []analysis.Accumulator, workers int, render analysis.RenderFunc) (w *analysis.World, sh []analysis.Shard, t *analysis.LabelTables, err error) {
	_, err = s.tr.doAlloc(s.parent, s.name, func() error {
		w, sh, t, err = s.Source.Run(accs, workers, render)
		return err
	})
	return w, sh, t, err
}

// tracedWorker wraps a Loopback worker, timing Eval and PutBlocks and
// counting their bytes. The embedded Loopback keeps the block-format
// and cache capabilities, so the scheduler treats it exactly as the
// bare worker.
type tracedWorker struct {
	*sched.Loopback
	tr     *tracer
	parent int

	requestBytes, responseBytes, putBytes atomic.Int64
}

func (w *tracedWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	id := w.tr.begin(w.parent, "sched.Eval")
	resp, err := w.Loopback.Eval(ctx, req)
	w.tr.end(id)
	w.tr.annotate(id, func(s *span) { s.Detail = w.Name() })
	w.requestBytes.Add(int64(len(req)))
	w.responseBytes.Add(int64(len(resp)))
	return resp, err
}

func (w *tracedWorker) PutBlocks(ctx context.Context, key string, blocks []byte) error {
	id := w.tr.begin(w.parent, "sched.PutBlocks")
	err := w.Loopback.PutBlocks(ctx, key, blocks)
	w.tr.end(id)
	w.tr.annotate(id, func(s *span) { s.Detail = w.Name() })
	w.putBytes.Add(int64(len(blocks)))
	return err
}

// tour is the traced run's accumulating state.
type tour struct {
	tr  *tracer
	res *result
}

func (t *tour) put(name string, v float64, unit string) { t.res.Metrics[name] = metric{v, unit} }

// tally counts one checked call into the result and reports whether
// it passed.
func (t *tour) tally(r *runRecord, err error, ref string) bool {
	if r == nil {
		r = &runRecord{}
	}
	check(r, err, ref)
	t.res.Attempted++
	if !r.OK {
		t.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", t.tr.run, r.Error)
	}
	return r.OK
}

// runTour is the traced run: for each workload in turn, a traced
// set-up, one untraced and one traced iteration (their wall-time
// difference is the tracing overhead), then the probes that split the
// workload's layers further over the same bytes.
func runTour(cfg config, rec *record) (*result, error) {
	t := &tour{tr: newTracer(), res: &result{Metrics: map[string]metric{}}}
	for _, name := range workloadNames {
		t.tr.run = name
		w := newWorkload(name, cfg)
		setup := t.tr.begin(0, "setup")
		setups, ref, err := setUp(cfg, w, t.tr, setup)
		t.tr.end(setup)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		rec.Setups = append(rec.Setups, setups...)
		if err := warmUp(name, w); err != nil {
			return nil, err
		}

		start := time.Now()
		r, err := w.iterate(nil, 0)
		untraced := time.Since(start).Seconds()
		t.tally(r, err, ref)

		root := t.tr.begin(0, name)
		r, err = w.iterate(t.tr, root)
		traced := t.tr.end(root)
		if !t.tally(r, err, ref) {
			continue // the failure is counted; its spans are incomplete
		}
		rec.Runs = append(rec.Runs, r)
		t.put("trace.overhead_s."+name, traced-untraced, "s")

		switch w := w.(type) {
		case *inmemFull:
			g := t.tr.find(name, "synth.Generate")
			gen := g[len(g)-1] // the traced iteration's
			t.put("synth.generate_s", gen.dur(), "s")
			t.put("synth.generate_alloc_mb", gen.AllocMB, "MB")
		case *corpusScan:
			err = t.scan(w, root, r.Records)
		case *remoteCold:
			err = t.remote(w, r, ref)
		case *followPaced:
			t.put("synth.replay_late_ms", r.Follow.LateP99MS, "ms")
			t.put("core.stream_lag_p50_ms", r.Follow.LagP50MS, "ms")
			t.put("core.stream_lag_p99_ms", r.Follow.LagP99MS, "ms")
			t.put("core.stream_frames", float64(r.Follow.Frames), "count")
			t.put("analysis.snapshots", float64(r.Follow.Snapshots), "count")
			t.put("events.backlog_high_water", float64(w.backlogHigh), "frames")
		}
		if err != nil {
			return nil, fmt.Errorf("%s probes: %w", name, err)
		}
	}
	t.res.Correct = t.res.Failed == 0
	rec.Spans = t.tr.spans
	rec.Summary = map[string]any{"derived_metrics": derivedMetrics}
	return t.res, nil
}

// scan reports corpus-scan's layers: spill, read, decode, level one,
// and how much of the traced iteration the layer spans cover. want is
// the store's record count, which the decode-only pass must deliver.
func (t *tour) scan(w *corpusScan, root, want int) error {
	name := t.tr.run
	t.put("core.spill_s", t.tr.find(name, "core.WriteCorpus")[0].dur(), "s")
	path := filepath.Join(w.dir, core.PartitionFileName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t.put("core.spill_bytes", float64(len(data)), "bytes")
	var busy time.Duration
	var read int64
	for _, r := range w.readers {
		busy += r.busy
		read += r.bytes
	}
	t.put("core.read_s", busy.Seconds(), "s")
	t.put("core.read_bytes", float64(read), "bytes")

	l1 := t.tr.find(name, "analysis.LevelOne")
	levelOne := l1[len(l1)-1]
	t.put("analysis.level_one_s", levelOne.dur(), "s")
	t.put("analysis.level_one_alloc_mb", levelOne.AllocMB, "MB")

	// Decode only: the same bytes through PartitionReader.NextDict,
	// checksums included, with no fold.
	blocks, records := 0, 0
	decode, err := t.tr.do(0, "core.NextDict", func() error {
		pr, err := core.NewPartitionReader(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for {
			b, _, err := pr.NextDict()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			blocks++
			records += b.Len()
		}
	})
	if err != nil {
		return err
	}
	if records != want {
		return fmt.Errorf("decode-only pass read %d records, want %d", records, want)
	}
	t.put("core.decode_s", decode, "s")
	t.put("core.decode_mb_per_s", float64(len(data))/(1<<20)/decode, "MB/s")
	t.put("core.blocks", float64(blocks), "count")
	t.put("analysis.fold_s", levelOne.dur()-decode, "s")

	var ivs []interval
	for _, s := range t.tr.leaves(root) {
		ivs = append(ivs, interval{s.Start, s.End})
	}
	rs := t.tr.find(name, name)[0]
	t.put("trace.scan_coverage", covered(ivs, rs.Start, rs.End)/rs.dur(), "share")
	return nil
}

// remote reports remote-cold's scheduler account from the traced
// iteration, then probes ship compression, the partition-state codec
// and the level-two merge over the store's partitions.
func (t *tour) remote(w *remoteCold, r *runRecord, ref string) error {
	name := t.tr.run
	var evalSum, evalMax float64
	var ivs []interval
	for _, s := range t.tr.find(name, "sched.Eval") {
		evalSum += s.dur()
		evalMax = max(evalMax, s.dur())
		ivs = append(ivs, interval{s.Start, s.End})
	}
	var req, resp, put int64
	for _, tw := range w.traced {
		req += tw.requestBytes.Load()
		resp += tw.responseBytes.Load()
		put += tw.putBytes.Load()
	}
	t.put("sched.eval_s", evalSum, "s")
	t.put("sched.eval_max_s", evalMax, "s")
	t.put("sched.coord_s", w.wall.hi-w.wall.lo-covered(ivs, w.wall.lo, w.wall.hi), "s")
	t.put("sched.request_bytes", float64(req), "bytes")
	t.put("sched.response_bytes", float64(resp), "bytes")
	t.put("sched.put_bytes", float64(put), "bytes")
	st := r.Sched
	t.put("sched.shipped_bytes", float64(st.ShippedBytes), "bytes")
	for name, v := range map[string]int64{
		"sched.evals": st.Evals, "sched.local_evals": st.LocalEvals,
		"sched.prefetches": st.Prefetches, "sched.steals": st.Steals,
		"sched.speculations": st.Speculations, "sched.cache_hits": st.CacheHits,
		"sched.cache_misses": st.CacheMisses,
	} {
		t.put(name, float64(v), "count")
	}

	eng := analysis.NewFullEngine()
	var compress, levelOne, snapshot, restore float64
	raw, shipped, stateBytes := 0, 0, 0
	var states []analysis.Source
	for k, info := range w.c.Manifest.Partitions {
		data, err := sched.ReadPartitionBlocks(w.c, k)
		if err != nil {
			return err
		}
		var z []byte
		d, err := t.tr.do(0, "core.CompressPartitionBlocks", func() (err error) {
			z, err = core.CompressPartitionBlocks(data)
			return err
		})
		if err != nil {
			return err
		}
		compress += d
		raw += len(data)
		shipped += len(z)

		src := func() analysis.Source {
			return &analysis.ReaderSource{
				Open:    func() (*core.PartitionReader, error) { return core.NewPartitionReader(bytes.NewReader(data)) },
				Base:    info.Base,
				Records: &info.Records,
				Name:    fmt.Sprintf("partition %d", k),
			}
		}
		d, err = t.tr.do(0, "analysis.Engine.RunLevelOne", func() error {
			_, _, _, err := eng.RunLevelOne(src())
			return err
		})
		if err != nil {
			return err
		}
		levelOne += d
		var state []byte
		if d, err = t.tr.do(0, "analysis.Engine.Snapshot", func() (err error) {
			state, err = eng.Snapshot(src())
			return err
		}); err != nil {
			return err
		}
		snapshot += d
		stateBytes += len(state)
		var ss *analysis.StateSource
		if d, err = t.tr.do(0, "analysis.Engine.RestoreState", func() (err error) {
			ss, err = eng.RestoreState(state)
			return err
		}); err != nil {
			return err
		}
		restore += d
		states = append(states, ss)
	}
	t.put("core.compress_s", compress, "s")
	t.put("core.ship_ratio", float64(shipped)/float64(raw), "ratio")
	t.put("analysis.marshal_s", snapshot-levelOne, "s")
	t.put("analysis.state_bytes", float64(stateBytes), "bytes")
	t.put("analysis.restore_s", restore, "s")

	var reports []*analysis.Report
	merge, err := t.tr.do(0, "analysis.Engine.RunSources", func() (err error) {
		reports, err = eng.RunSources(states...)
		return err
	})
	if err != nil {
		return err
	}
	pr := &runRecord{}
	render, _ := t.tr.do(0, "analysis.RenderText", func() error {
		pr.text = analysis.RenderText(analysis.Canonicalize(reports))
		return nil
	})
	t.tally(pr, nil, ref)
	t.put("analysis.merge_render_s", merge, "s")
	t.put("analysis.render_text_s", render, "s")
	return nil
}
