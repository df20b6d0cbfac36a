package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/events"
	"blueskies/internal/synth"
)

// snapshotsPerReplay sets follow-paced's SnapshotEvery to the corpus
// record count divided by this.
const snapshotsPerReplay = 40

// replayBlockSize is the records per replayed frame.
const replayBlockSize = 256

// followPaced replays the generated corpus into a firehose + labeler
// sequencer pair on an open-loop schedule — frame k is due at
// start + k/rate whether or not the consumer kept up — and folds the
// drained stream through a MultiSource with periodic merged snapshots.
type followPaced struct {
	rate     float64
	ds       *core.Dataset
	manifest *core.Manifest
	every    int
	// wantSnaps is the snapshot count a replay must produce: the
	// coordinator's rule (a snapshot each time the records since the
	// last one reach every) applied to the frames in emission order.
	wantSnaps int
	// length is how long one replay's schedule runs.
	length time.Duration
	// backlogHigh is the traced replay's peak combined sequencer
	// backlog, in frames.
	backlogHigh int
}

// followRecord is one replay's account.
type followRecord struct {
	Frames    int     `json:"frames"`
	Snapshots int     `json:"snapshots"`
	LagP50MS  float64 `json:"lag_p50_ms"`
	LagP99MS  float64 `json:"lag_p99_ms"`
	LagMaxMS  float64 `json:"lag_max_ms"`
	// LateP99MS and LateMaxMS are how far behind its schedule the
	// generator started its frames: the 99th percentile and the worst.
	LateP99MS float64 `json:"late_p99_ms"`
	LateMaxMS float64 `json:"late_max_ms"`

	lags []float64 // per-frame lag in ms, emission order
}

func (w *followPaced) prepare(ds *core.Dataset, _ *tracer, _ int) (string, error) {
	w.ds = ds
	w.manifest = core.BuildManifest([]*core.Dataset{ds}, ds.Scale, 0, true)
	w.every = ds.Counts().Total()/snapshotsPerReplay + 1
	w.wantSnaps = 0
	since := 0
	frames := frameRecords(ds)
	// Each stream also ends with an end-of-stream frame.
	w.length = time.Duration(float64(len(frames)+2) / w.rate * float64(time.Second))
	for _, n := range frames {
		if since += n; since >= w.every {
			w.wantSnaps++
			since = 0
		}
	}
	return "", nil
}

// frameRecords lists the record count of every block-carrying frame a
// replay emits, in emission order: the header, then each firehose
// collection, then the labels.
func frameRecords(ds *core.Dataset) []int {
	out := []int{0}
	chunk := func(n int) {
		for lo := 0; lo < n; lo += replayBlockSize {
			out = append(out, min(replayBlockSize, n-lo))
		}
	}
	c := ds.Counts()
	for _, n := range []int{c.Users, c.Posts, c.Days, c.FeedGens, c.Domains, c.HandleUpdates, c.Labels} {
		chunk(n)
	}
	return out
}

func (w *followPaced) iterate(tr *tracer, parent int) (*runRecord, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fire, labeler := events.NewSequencer(0, 0), events.NewSequencer(0, 0)
	blocks, errs := core.DrainSequencers(ctx, fire, labeler)

	// The forwarder hands each decoded block to the engine over an
	// unbuffered channel, so the send returns when the engine takes
	// the block: that instant is the block's acceptance time.
	var accepted [2][]time.Time
	fwd := make(chan core.RecordBlock)
	fwdDone := make(chan struct{})
	go func() {
		defer close(fwdDone)
		defer close(fwd)
		for b := range blocks {
			stream := synth.StreamFirehose
			if len(b.Labels) > 0 {
				stream = synth.StreamLabeler
			}
			select {
			case fwd <- b:
				accepted[stream] = append(accepted[stream], time.Now())
			case <-ctx.Done():
				return
			}
		}
	}()

	// The schedule: frame k is due at start + k·interval. OnEmit runs
	// after each frame and sleeps until the next one is due.
	interval := time.Duration(float64(time.Second) / w.rate)
	var due [2][]time.Time
	var late []float64
	backlogHigh := 0
	frames := 0
	start := time.Now()
	next := start
	hooks := synth.ReplayHooks{BlockSize: replayBlockSize, OnEmit: func(stream int, _ int64) {
		due[stream] = append(due[stream], next)
		if tr != nil {
			backlogHigh = max(backlogHigh, fire.BacklogLen()+labeler.BacklogLen())
		}
		frames++
		next = start.Add(time.Duration(frames) * interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms64(time.Since(next)))
	}}
	replayErr := make(chan error, 1)
	go func() {
		err := synth.ReplayWithHooks(w.ds, fire, labeler, hooks)
		if err != nil {
			cancel() // no end-of-stream marker will come: stop the drain
		}
		replayErr <- err
	}()

	var snaps atomic.Int64
	ms := &analysis.MultiSource{
		Sources:       []analysis.Source{&analysis.StreamSource{Blocks: fwd}},
		Manifest:      w.manifest,
		SnapshotEvery: w.every,
		OnSnapshot:    func(int, []*analysis.Report) { snaps.Add(1) },
	}
	var reports []*analysis.Report
	_, err := tr.do(parent, "analysis.RunSource", func() (err error) {
		reports, err = analysis.NewFullEngine().RunSource(ms)
		return err
	})
	if err != nil {
		cancel()
	}
	rerr := <-replayErr
	<-fwdDone
	for e := range errs {
		if err == nil && e != nil {
			err = e
		}
	}
	if err == nil && rerr != nil {
		err = fmt.Errorf("replay: %w", rerr)
	}
	r := &runRecord{Records: w.ds.Counts().Total()}
	if err != nil {
		return r, err
	}

	fr := &followRecord{
		Frames:    frames,
		Snapshots: int(snaps.Load()),
		LateP99MS: quantile(late, 0.99),
		LateMaxMS: quantile(late, 1),
	}
	for s := range due {
		// Every frame but the end-of-stream marker yields one block.
		if len(accepted[s]) != len(due[s])-1 {
			return r, fmt.Errorf("stream %d: %d blocks accepted for %d frames emitted", s, len(accepted[s]), len(due[s]))
		}
		for j, at := range accepted[s] {
			fr.lags = append(fr.lags, ms64(at.Sub(due[s][j])))
		}
	}
	fr.LagP50MS, fr.LagP99MS, fr.LagMaxMS = quantile(fr.lags, 0.5), quantile(fr.lags, 0.99), quantile(fr.lags, 1)
	r.Follow = fr
	// The offered load held only if the generator kept to its
	// schedule: a run where over 1% of frames started more than one
	// interval late is degraded.
	r.Degraded = fr.LateP99MS > ms64(interval)
	w.backlogHigh = backlogHigh
	if fr.Snapshots != w.wantSnaps {
		return r, fmt.Errorf("%d snapshots, want %d", fr.Snapshots, w.wantSnaps)
	}
	tr.do(parent, "analysis.RenderText", func() error {
		r.text = analysis.RenderText(analysis.Canonicalize(reports))
		return nil
	})
	return r, nil
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
