package analysis

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"blueskies/internal/core"
)

// MultiSource runs the registered accumulators over a set of partition
// Sources and folds their states with a two-level merge: level one is
// each partition's own ingest (exactly the single-dataset semantics),
// level two remaps every partition's URI/Val/Src intern tables — and,
// for independent datasets, its partition-local user indexes — into
// the corpus id space and folds the partition states in partition
// order. Because split partitions cover contiguous row ranges and fold
// in order, the two-level merge produces exactly the state of a flat
// single-dataset traversal: RunAll over {1 partition} is
// byte-identical to an unpartitioned run, and an n-way split of a
// corpus matches the unsplit golden at any worker count.
//
// The render context (World) is synthesized from the merged partition
// worlds: summed record counts and firehose counters, min/max windows,
// a deduplicated labeler enumeration (which must agree across
// partitions — labels are attributed by labeler index), and a
// concatenated follower-degree column in partition order.
//
// Batch partitions (DatasetSource) and disk partitions (DiskSource —
// out-of-core block streams from a partition store) run concurrently,
// capped at GOMAXPROCS, each on its share of the accumulator groups;
// a disk partition stays resident as one decoded block plus
// accumulator state. Stream partitions (StreamSource — one
// firehose/labeler stream pair per partition, each with its own
// sequence-gap tracking) ingest concurrently; when SnapshotEvery > 0
// their ingest loops coordinate merged stop-the-world snapshots: every
// stream pauses at a block boundary, the quiescent partition states
// fold non-destructively into a corpus snapshot, and ingestion
// resumes. Partition sub-sources'
// own SnapshotEvery/OnSnapshot are ignored under MultiSource. A batch
// partition still traversing when a snapshot fires is excluded from
// that snapshot (it joins once complete); the final fold always covers
// every partition.
type MultiSource struct {
	Sources []Source
	// Manifest describes the partitions (optional). When present its
	// Scale wins over the per-partition worlds' — independent partition
	// datasets carry Scale·n locally — and SharedIndex=false turns on
	// user-index rebasing.
	Manifest *core.Manifest
	// Rebase forces partition-local user-index rebasing when no
	// manifest is given.
	Rebase bool
	// SnapshotEvery renders a merged corpus snapshot each time this
	// many records arrived across all stream partitions (0 = final
	// only; batch-only runs never snapshot mid-run).
	SnapshotEvery int
	// OnSnapshot receives each merged mid-run snapshot.
	OnSnapshot func(records int, reports []*Report)
}

// NewPartitionedSource wraps partition datasets as a batch MultiSource,
// feeding each partition's blocks at its manifest base offsets.
func NewPartitionedSource(parts []*core.Dataset, m *core.Manifest) *MultiSource {
	if m == nil {
		m = core.BuildManifest(parts, 0, 0, true)
	}
	ms := &MultiSource{Manifest: m}
	for k, p := range parts {
		base := core.CollectionCounts{}
		if k < len(m.Partitions) {
			base = m.Partitions[k].Base
		}
		ms.Sources = append(ms.Sources, NewDatasetSourceAt(p, base))
	}
	return ms
}

// rebase reports whether partition-local user indexes need offsetting.
func (ms *MultiSource) rebase() bool {
	if ms.Manifest != nil {
		return !ms.Manifest.SharedIndex
	}
	return ms.Rebase
}

// partState is one partition's traversal state. Completed partitions
// carry materialized fields; live stream partitions resolve through
// their ingest (whose state is only read at quiescent points).
type partState struct {
	world  *World
	shards []Shard
	tables *LabelTables
	si     *streamIngest
}

func (st *partState) resolve() (*World, []Shard, *LabelTables) {
	if st.si != nil {
		return st.si.world, st.si.shards, st.si.tables
	}
	return st.world, st.shards, st.tables
}

// Run implements Source over the partition set. A partition that
// errors aborts the whole run with that error as soon as it surfaces —
// without waiting for the remaining partitions (a run must never hang
// on a healthy-but-endless stream because a sibling died, and no
// partial tables are ever rendered). Abandoned partitions finish in
// the background: their goroutines drain harmlessly into the discarded
// state slots, and mid-run snapshots are suppressed once the run is
// aborting. Callers that own live stream channels should close them
// (cancel the feeding context) after an error return.
func (ms *MultiSource) Run(accs []Accumulator, workers int, render RenderFunc) (*World, []Shard, *LabelTables, error) {
	n := len(ms.Sources)
	if n == 0 {
		return ms.fold(accs, nil)
	}
	states := make([]*partState, n)
	var failed atomic.Bool

	streamWorkers := workers
	if streamWorkers <= 0 {
		// Local partitions fan out over accumulator groups; share the
		// machine instead of oversubscribing n× GOMAXPROCS.
		streamWorkers = max(1, runtime.GOMAXPROCS(0)/n)
	}

	var coord *snapCoordinator
	if ms.SnapshotEvery > 0 && render != nil && ms.OnSnapshot != nil {
		coord = &snapCoordinator{
			every: ms.SnapshotEvery,
			pause: make(chan struct{}),
			snapshot: func(sts []*partState) {
				if failed.Load() {
					return // the run is aborting; render nothing partial
				}
				world, merged, tables, err := ms.fold(accs, sts)
				if err != nil {
					return // enumeration conflicts surface at the final fold
				}
				records := world.Users + world.Posts + world.Days + world.Labels +
					world.FeedGens + world.Domains + world.HandleUpdates
				ms.OnSnapshot(records, render(world, merged, tables))
			},
		}
		// Register every stream partition up front: a round can only
		// complete once all of them are flushed and parked, and their
		// live ingest states participate in every snapshot fold.
		for p, sub := range ms.Sources {
			if src, ok := sub.(*StreamSource); ok {
				states[p] = &partState{si: newStreamIngest(accs, streamWorkers, src.Base)}
				coord.active++
			}
		}
		coord.states = states
	}

	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	done := make(chan error, n)
	for p, sub := range ms.Sources {
		go func(p int, sub Source) {
			if src, ok := sub.(*StreamSource); ok {
				if coord != nil {
					runCoordinatedStream(src, states[p].si, coord)
					done <- nil
					return
				}
				world, shards, tables, err := src.Run(accs, streamWorkers, nil)
				if err != nil {
					done <- err
					return
				}
				states[p] = &partState{world: world, shards: shards, tables: tables}
				done <- nil
				return
			}
			// Batch partitions are CPU-bound; cap their concurrency.
			// Offloaded partitions (remote workers) skip the cap: their
			// traversal burns another machine's cores, and gating them
			// here would bound fleet fan-out at local GOMAXPROCS.
			if o, ok := sub.(OffloadedSource); !ok || !o.Offloaded() {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			if failed.Load() {
				// The run is already aborting; don't start a traversal
				// whose state the fold will never consume.
				done <- nil
				return
			}
			w := workers
			switch sub.(type) {
			case *DatasetSource, *DiskSource:
				w = streamWorkers // this partition's share of the groups
			}
			world, shards, tables, err := sub.Run(accs, w, nil)
			if err != nil {
				done <- err
				return
			}
			st := &partState{world: world, shards: shards, tables: tables}
			if coord != nil {
				coord.complete(p, st)
			} else {
				states[p] = st
			}
			done <- nil
		}(p, sub)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			failed.Store(true)
			return nil, nil, nil, err
		}
	}
	return ms.fold(accs, states)
}

// fold is the cross-partition (level two) merge: remap every
// partition's intern tables into one corpus table, synthesize the
// merged render context, and fold each accumulator's partition states
// into fresh corpus shards in partition order. Folding into fresh
// shards keeps partition states untouched, so a mid-run snapshot can
// fold again later; the final state takes the same path.
func (ms *MultiSource) fold(accs []Accumulator, states []*partState) (*World, []Shard, *LabelTables, error) {
	type resolved struct {
		idx    int // partition index in ms.Sources / manifest order
		world  *World
		shards []Shard
		tables *LabelTables
	}
	var live []resolved
	for idx, st := range states {
		if st == nil {
			continue
		}
		w, sh, t := st.resolve()
		live = append(live, resolved{idx, w, sh, t})
	}
	if len(live) == 0 {
		world := &World{}
		shards := make([]Shard, len(accs))
		for ai, a := range accs {
			shards[ai] = a.NewShard(world)
		}
		return world, shards, nil, nil
	}
	rebase := ms.rebase()
	worlds := make([]*World, len(live))
	idxs := make([]int, len(live))
	for i := range live {
		worlds[i] = live[i].world
		idxs[i] = live[i].idx
	}
	world, userBases, err := mergeWorlds(worlds, idxs, ms.Manifest)
	if err != nil {
		return nil, nil, nil, err
	}
	var tables *LabelTables
	mcs := make([]*MergeCtx, len(live))
	anyTables := false
	for p := range live {
		if live[p].tables != nil {
			anyTables = true
		}
		tables, mcs[p] = foldTables(tables, live[p].tables)
	}
	if !anyTables {
		tables = nil
	}
	for p := range mcs {
		if tables != nil {
			mcs[p].NumURIs = len(tables.URIs)
			mcs[p].NumVals = len(tables.Vals)
		}
		if rebase {
			mcs[p].Users = userBases[p]
		}
	}
	merged := make([]Shard, len(accs))
	for ai, a := range accs {
		dst := a.NewShard(world)
		for p := range live {
			if live[p].shards == nil {
				continue // stream partition with no records yet
			}
			a.Merge(dst, live[p].shards[ai], mcs[p])
		}
		merged[ai] = dst
	}
	return world, merged, tables, nil
}

// foldTables folds src's intern tables into dst, returning the global
// tables and the remapping for src's local ids. A nil or empty src
// remaps as a no-op (empty remap slices — nothing holds its ids), and
// a nil dst adopts a fresh table so later partitions still fold into a
// well-defined global id space.
func foldTables(dst, src *LabelTables) (*LabelTables, *MergeCtx) {
	if dst == nil {
		dst = newLabelTables()
	}
	if src == nil {
		return dst, &MergeCtx{}
	}
	mc := &MergeCtx{
		URIRemap: make([]int32, len(src.URIs)),
		ValRemap: make([]int32, len(src.Vals)),
		SrcRemap: make([]int32, len(src.ExtraSrcs)),
	}
	for i, s := range src.URIs {
		mc.URIRemap[i] = dst.internURI(s)
	}
	for i, s := range src.Vals {
		mc.ValRemap[i] = dst.internVal(s)
	}
	for i, s := range src.ExtraSrcs {
		mc.SrcRemap[i] = dst.internExtraSrc(s)
	}
	return dst, mc
}

// mergeWorlds synthesizes the corpus render context from partition
// worlds: summed record counts and firehose counters, min/max window,
// the deduplicated labeler enumeration, and the follower-degree
// column. For SharedIndex corpora each partition's degrees sit at its
// manifest user offset (idxs maps worlds to manifest entries), so a
// corpus-global creator index resolves correctly even in a mid-run
// snapshot where earlier partitions have streamed only a prefix of
// their users — not-yet-arrived users read as degree 0, never as a
// later partition's user. Partition-local corpora concatenate in
// partition order, which is exactly the rebase target. Returns each
// partition's user base in the merged index space.
func mergeWorlds(worlds []*World, idxs []int, m *core.Manifest) (*World, []int, error) {
	out := &World{}
	bases := make([]int, len(worlds))
	shared := m != nil && m.SharedIndex
	for p, w := range worlds {
		bases[p] = out.Users
		if shared && idxs[p] < len(m.Partitions) {
			bases[p] = m.Partitions[idxs[p]].Base.Users
			for len(out.followers) < bases[p] {
				out.followers = append(out.followers, 0)
			}
		}
		if out.Scale == 0 {
			out.Scale = w.Scale
		}
		if out.WindowStart.IsZero() || (!w.WindowStart.IsZero() && w.WindowStart.Before(out.WindowStart)) {
			out.WindowStart = w.WindowStart
		}
		if w.WindowEnd.After(out.WindowEnd) {
			out.WindowEnd = w.WindowEnd
		}
		var err error
		if out.Labelers, err = core.MergeLabelers(out.Labelers, w.Labelers); err != nil {
			return nil, nil, fmt.Errorf("analysis: merging partition %d: %w", p, err)
		}
		out.Firehose.Commits += w.Firehose.Commits
		out.Firehose.Identity += w.Firehose.Identity
		out.Firehose.Handle += w.Firehose.Handle
		out.Firehose.Tombstone += w.Firehose.Tombstone
		out.NonBskyEvents += w.NonBskyEvents
		out.Users += w.Users
		out.Posts += w.Posts
		out.Days += w.Days
		out.Labels += w.Labels
		out.FeedGens += w.FeedGens
		out.Domains += w.Domains
		out.HandleUpdates += w.HandleUpdates
		out.followers = append(out.followers, w.followers...)
	}
	if m != nil && m.Scale != 0 {
		out.Scale = m.Scale
	}
	return out, bases, nil
}

// snapCoordinator orchestrates merged stop-the-world snapshots across
// stream partitions: when the corpus-wide record count since the last
// snapshot crosses the threshold, the pause-channel broadcast makes
// every running stream flush its groups and park; the last stream to
// arrive folds the quiescent states, renders, and releases the round.
// Completed partitions (batch results or ended streams) are permanently
// quiescent and stay part of every later fold.
type snapCoordinator struct {
	every    int
	snapshot func([]*partState)

	mu      sync.Mutex
	states  []*partState
	active  int // running stream partitions
	since   int // records applied since the last round opened
	opened  int // the value of since when the pending round opened
	pausing bool
	pause   chan struct{} // closed to request a round
	done    chan struct{} // closed when the round completes
	arrived int
}

// pauseChan returns the current round's broadcast channel.
func (c *snapCoordinator) pauseChan() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pause
}

// progress reports n ingested records and may initiate a round.
func (c *snapCoordinator) progress(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.since += n
	if !c.pausing && c.since >= c.every {
		c.pausing = true
		c.opened = c.since
		c.done = make(chan struct{})
		close(c.pause)
	}
}

// arrive parks a flushed stream until the round completes; the last
// arriver performs the merged render.
func (c *snapCoordinator) arrive() {
	c.mu.Lock()
	if !c.pausing {
		c.mu.Unlock() // the round completed before this stream noticed
		return
	}
	c.arrived++
	done := c.done
	if c.arrived >= c.active {
		c.completeLocked()
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	<-done
}

// complete records a completed batch partition's state.
func (c *snapCoordinator) complete(p int, st *partState) {
	c.mu.Lock()
	c.states[p] = st
	c.mu.Unlock()
}

// finish retires a running stream partition; a round waiting only on
// it fires now.
func (c *snapCoordinator) finish() {
	c.mu.Lock()
	c.active--
	if c.pausing && c.arrived >= c.active {
		c.completeLocked()
	}
	c.mu.Unlock()
}

// completeLocked folds the quiescent states, emits the snapshot, and
// releases the round. Caller holds c.mu; every other active stream is
// parked in arrive, so all registered states are quiescent. Only the
// records counted when the round opened are consumed: records applied
// while it was pending count toward the next round.
func (c *snapCoordinator) completeLocked() {
	c.snapshot(c.states)
	c.pausing = false
	c.arrived = 0
	c.since -= c.opened
	close(c.done)
	c.pause = make(chan struct{})
}

// runCoordinatedStream drives one partition's stream ingest under the
// snapshot coordinator: blocks apply in arrival order, and when a
// round opens the ingest flushes and parks until the merged snapshot
// has rendered. The ingest's state is registered with the coordinator
// before the run starts and stays registered after the stream ends.
func runCoordinatedStream(src *StreamSource, si *streamIngest, coord *snapCoordinator) {
	for {
		select {
		case b, ok := <-src.Blocks:
			if !ok {
				si.finish()
				coord.finish()
				return
			}
			coord.progress(si.apply(b))
		case <-coord.pauseChan():
			si.flush()
			coord.arrive()
		}
	}
}
