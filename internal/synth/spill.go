package synth

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"blueskies/internal/core"
)

// GeneratePartitionedTo is GeneratePartitioned spilling straight to a
// disk-backed partition store: each partition is generated, written to
// dir as a block file, and released before its worker takes the next
// one, so peak memory is bounded by `workers` resident partitions (one
// per worker) regardless of n — the out-of-core complement to
// GeneratePartitioned, which returns the whole partition set on the
// heap. workers ≤ 0 uses min(n, GOMAXPROCS).
//
// The on-disk corpus is record-identical to GeneratePartitioned's: the
// same per-partition RNG sub-streams, shared labeler enumeration, and
// partition-0 activity/firehose facts, with the same manifest (written
// as the manifest.json sidecar and returned). Deterministic in
// (Scale, Seed, n) at any worker count.
func GeneratePartitionedTo(cfg Config, n int, dir string, workers int) (*core.Manifest, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if n < 1 {
		n = 1
	}
	if workers <= 0 {
		workers = min(n, runtime.GOMAXPROCS(0))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Replace any store already there: stale part files beyond this
	// run's count must not survive into the new corpus, and removing
	// the old manifest first means an interrupted spill leaves a
	// directory OpenCorpus rejects rather than a blend of two corpora.
	if err := core.ClearStore(dir); err != nil {
		return nil, err
	}

	// Corpus-level stages on the corpus seed's streams, exactly as in
	// GeneratePartitioned: the labeler enumeration is shared by every
	// partition and the activity/firehose facts ride on partition 0.
	labelers := genLabelers(stageRNG(cfg.Seed, stageModeration))
	shared := &core.Dataset{Scale: cfg.Scale, WindowStart: WindowStart, WindowEnd: WindowEnd}
	genActivity(shared, stageRNG(cfg.Seed, stageActivity))

	// Per-partition manifest snapshots, taken before each dataset is
	// released; folded through Manifest.AddPartition below, so the
	// spilled manifest is assembled by exactly the code BuildManifest
	// runs over a materialized set.
	type snapshot struct {
		info                   core.PartitionInfo
		windowStart, windowEnd time.Time
	}
	snaps := make([]snapshot, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				// At most one partition resident per worker: ds goes out
				// of scope (and its slabs with it) before the next k.
				ds := generatePartition(cfg, n, k, labelers)
				if k == 0 {
					ds.Daily = shared.Daily
					ds.Firehose = shared.Firehose
					ds.NonBskyEvents = shared.NonBskyEvents
				}
				snaps[k] = snapshot{ds.PartitionInfo(k), ds.WindowStart, ds.WindowEnd}
				var hash string
				hash, errs[k] = core.WritePartitionContent(filepath.Join(dir, core.PartitionFileName(k)), ds, 0)
				snaps[k].info.ContentHash = hash
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("synth: spill partition %d: %w", k, err)
		}
	}

	m := &core.Manifest{Scale: cfg.Scale, Seed: cfg.Seed, SharedIndex: false}
	for k := range snaps {
		m.AddPartition(snaps[k].info, snaps[k].windowStart, snaps[k].windowEnd)
		m.Partitions[k].Seed = partitionSeed(cfg.Seed, k)
	}
	if err := core.WriteManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}
