package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueskies/internal/core"
)

// corruptPartitionFile flips one byte in the middle of partition k's
// block file.
func corruptPartitionFile(t *testing.T, dir string, k int) {
	t.Helper()
	path := filepath.Join(dir, core.PartitionFileName(k))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x5A
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// errSource fails its traversal immediately.
type errSource struct{ err error }

func (s *errSource) Run([]Accumulator, int, RenderFunc) (*World, []Shard, *LabelTables, error) {
	return nil, nil, nil, s.err
}

// TestMultiSourceAbortsOnSourceError is the scheduler's failure-path
// prerequisite: when one of several partition sources errors mid-run —
// a corrupt disk partition, a dead remote worker — the whole run must
// abort promptly with the underlying error. "Promptly" includes the
// hard case: a sibling stream partition that never ends must not keep
// the run hanging, and no partial tables may be rendered.
func TestMultiSourceAbortsOnSourceError(t *testing.T) {
	boom := errors.New("partition 1: worker died")
	// A live stream that never delivers and never closes: before the
	// first-error abort, MultiSource waited for every partition, so
	// this configuration hung forever.
	endless := make(chan core.RecordBlock)
	defer close(endless)
	ms := &MultiSource{Sources: []Source{
		&StreamSource{Blocks: endless},
		&errSource{err: boom},
		NewDatasetSource(ds),
	}}
	type result struct {
		reports []*Report
		err     error
	}
	done := make(chan result, 1)
	go func() {
		reports, err := NewFullEngine().RunSource(ms)
		done <- result{reports, err}
	}()
	select {
	case res := <-done:
		if !errors.Is(res.err, boom) {
			t.Fatalf("run returned %v, want the partition error", res.err)
		}
		if res.reports != nil {
			t.Fatal("partial reports rendered despite a failed partition")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with a failed partition hung on the endless sibling stream")
	}
}

// TestMultiSourceCorruptDiskPartitionAborts runs the concrete scenario
// the satellite names: several disk partitions, one corrupted on disk,
// mixed with a healthy batch partition — the run must surface the
// decode error, not render a thinned corpus.
func TestMultiSourceCorruptDiskPartitionAborts(t *testing.T) {
	parts, m := core.Split(ds, 3)
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	corruptPartitionFile(t, dir, 1)
	c, err := core.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms := &MultiSource{
		Sources: []Source{
			NewDiskSource(c, 0),
			NewDiskSource(c, 1),
			NewDatasetSourceAt(parts[2], m.Partitions[2].Base),
		},
		Manifest: m,
	}
	if _, err := NewFullEngine().Workers(2).RunSource(ms); err == nil {
		t.Fatal("corrupt partition among healthy ones evaluated without error")
	}
}

// gatedErrSource fails its traversal once the gate closes.
type gatedErrSource struct {
	gate <-chan struct{}
	err  error
}

func (s *gatedErrSource) Run([]Accumulator, int, RenderFunc) (*World, []Shard, *LabelTables, error) {
	<-s.gate
	return nil, nil, nil, s.err
}

// TestMultiSourceErrorSuppressesSnapshots pins the abort/snapshot
// interaction: once a partition has failed, the coordinator must stop
// emitting merged snapshots (no partial tables after an abort), while
// the error still surfaces and the abandoned streams drain cleanly.
func TestMultiSourceErrorSuppressesSnapshots(t *testing.T) {
	boom := errors.New("boom")
	parts, m := core.Split(ds, 2)
	srcs, errChans := partitionStreams(t, parts, m, 2048)
	var snaps atomic.Int64
	gate := make(chan struct{})
	var once sync.Once
	ms := &MultiSource{
		Sources:       append(srcs, &gatedErrSource{gate: gate, err: boom}),
		Manifest:      m,
		SnapshotEvery: 5_000,
		OnSnapshot: func(int, []*Report) {
			snaps.Add(1)
			once.Do(func() { close(gate) }) // fail the third partition after the first snapshot
		},
	}
	_, err := NewFullEngine().Workers(2).RunSource(ms)
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the partition error", err)
	}
	atReturn := snaps.Load()
	// The abandoned streams keep replaying to completion in the
	// background; every snapshot round they trigger from here on must
	// be suppressed (at most one round can already be in flight).
	for _, errs := range errChans {
		drainErrs(t, errs)
	}
	if final := snaps.Load(); final > atReturn+1 {
		t.Fatalf("%d merged snapshots rendered after the abort (had %d at return)", final-atReturn, atReturn)
	}
}

// TestSnapCoordinatorCountsRecordsAppliedWhilePending pins the round
// accounting: records applied after a round opens but before it
// completes count toward the next round instead of being dropped, so
// the number of snapshots does not depend on when the round completes.
func TestSnapCoordinatorCountsRecordsAppliedWhilePending(t *testing.T) {
	rounds := 0
	c := &snapCoordinator{
		every:    10,
		active:   1,
		pause:    make(chan struct{}),
		snapshot: func([]*partState) { rounds++ },
	}
	c.progress(10) // opens round 1
	c.progress(7)  // applied while round 1 is pending
	c.arrive()     // the only stream parks: round 1 completes
	if rounds != 1 {
		t.Fatalf("%d rounds after the first arrive, want 1", rounds)
	}
	c.progress(3) // 7 + 3 records since round 1 opened: round 2 opens
	select {
	case <-c.pauseChan():
	default:
		t.Fatal("no second round opened: records applied while round 1 was pending were dropped")
	}
	c.arrive()
	if rounds != 2 {
		t.Fatalf("%d rounds, want 2", rounds)
	}
}
