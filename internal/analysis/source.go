package analysis

import "blueskies/internal/core"

// RenderFunc renders a full report set from merged accumulator state;
// sources use it to emit mid-run snapshots.
type RenderFunc func(w *World, merged []Shard, t *LabelTables) []*Report

// Source is one corpus traversal: it allocates shard state for the
// registered accumulators, streams every needed record block through
// it, and returns the per-accumulator state with the render context
// and label intern tables (nil when labels were not consumed).
//
// workers is the number of accumulator groups; ≤ 0 means
// min(GOMAXPROCS, #accumulators). render, when non-nil, lets the
// source emit snapshots mid-run (StreamSource does; DatasetSource
// ignores it).
type Source interface {
	Run(accs []Accumulator, workers int, render RenderFunc) (*World, []Shard, *LabelTables, error)
}

// OffloadedSource marks a Source whose Run performs its traversal on
// another machine (a remote worker). MultiSource runs such partitions
// without claiming a local CPU slot, so remote fan-out is bounded by
// the fleet size, not by the scheduler's GOMAXPROCS.
type OffloadedSource interface {
	Source
	// Offloaded reports whether this run's heavy lifting happens
	// elsewhere.
	Offloaded() bool
}

// DatasetSource feeds a materialized core.Dataset — the batch
// execution mode — through the same block ingest as every other
// source: the dataset is cut into zero-copy record blocks laid out
// exactly as a spilled partition (core.DatasetBlocks), so an in-memory
// partition and its spilled store fold to identical state.
type DatasetSource struct {
	ds *core.Dataset
	// base offsets every block's global start index — the partition's
	// position in a partitioned corpus (zero for a standalone dataset),
	// so index-dependent accumulator state (e.g. the weekly sampling of
	// Figures 1–2) is computed against corpus positions.
	base core.CollectionCounts
}

// NewDatasetSource wraps a materialized dataset as a Source.
func NewDatasetSource(ds *core.Dataset) *DatasetSource { return &DatasetSource{ds: ds} }

// NewDatasetSourceAt wraps one partition of a partitioned corpus,
// feeding record blocks with global base indexes offset by the
// partition's manifest position.
func NewDatasetSourceAt(ds *core.Dataset, base core.CollectionCounts) *DatasetSource {
	return &DatasetSource{ds: ds, base: base}
}

// Run implements Source: the dataset's blocks stream through the
// accumulator groups in spilled-partition order. render is ignored.
func (src *DatasetSource) Run(accs []Accumulator, workers int, _ RenderFunc) (*World, []Shard, *LabelTables, error) {
	si := newStreamIngest(accs, workers, src.base)
	for b := range core.DatasetBlocks(src.ds, 0) {
		si.apply(*b)
	}
	si.finish()
	return si.world, si.shards, si.tables, nil
}

// buildLabelMeta computes the shared per-label metadata for one block
// into a fresh buffer. labelers is the announced population backing
// didIdx.
func buildLabelMeta(labelers []core.Labeler, ls []core.Label, t *LabelTables, didIdx map[string]int32) []LabelMeta {
	meta := make([]LabelMeta, 0, len(ls))
	for i := range ls {
		l := &ls[i]
		m := LabelMeta{
			URIID:    t.internURI(l.URI),
			ValID:    t.internVal(l.Val),
			MonthIdx: int32(l.Applied.Year())*12 + int32(l.Applied.Month()) - 1,
		}
		if idx, ok := didIdx[l.Src]; ok {
			m.LabelerIdx = idx
			m.Official = labelers[idx].Official
		} else {
			m.LabelerIdx = t.internExtraSrc(l.Src)
		}
		if !l.Neg && l.FreshSubject && l.Kind == core.SubjectPost {
			m.FreshPost = true
			m.RTSec = l.ReactionTime().Seconds()
		}
		meta = append(meta, m)
	}
	return meta
}

// buildLabelMetaFused is buildLabelMeta for blocks decoded with a
// dictionary view: the label Src/Val/Kind columns arrive as ids into
// db.Dict, so each distinct string is hashed into the intern tables
// once per block (at its first referencing row) instead of once per
// record. Because intern ids are assigned in first-occurrence order
// and interning is idempotent, the resulting tables and metadata are
// byte-identical to the per-record path. URIs are not
// dictionary-interned (they are nearly all distinct) and stay
// per-record.
//
// db's id columns must be parallel to ls — the caller checks.
func buildLabelMetaFused(labelers []core.Labeler, ls []core.Label, db *core.DictBlock, t *LabelTables, didIdx map[string]int32) []LabelMeta {
	meta := make([]LabelMeta, 0, len(ls))
	// Per-dict-id memos, filled lazily so table growth happens in
	// exactly the order the per-record path would produce. valIDs uses
	// -1 as "unseen" (interned val ids are ≥ 0); src ids can be
	// negative (extra-src space), so srcSeen carries that bit.
	valIDs := make([]int32, len(db.Dict))
	for i := range valIDs {
		valIDs[i] = -1
	}
	srcSeen := make([]bool, len(db.Dict))
	srcIdx := make([]int32, len(db.Dict))
	official := make([]bool, len(db.Dict))
	kindPost := make([]bool, len(db.Dict))
	for i, s := range db.Dict {
		kindPost[i] = s == string(core.SubjectPost)
	}
	for i := range ls {
		l := &ls[i]
		m := LabelMeta{
			URIID:    t.internURI(l.URI),
			MonthIdx: int32(l.Applied.Year())*12 + int32(l.Applied.Month()) - 1,
		}
		v := db.LabelVal[i]
		if valIDs[v] < 0 {
			valIDs[v] = t.internVal(db.Dict[v])
		}
		m.ValID = valIDs[v]
		s := db.LabelSrc[i]
		if !srcSeen[s] {
			srcSeen[s] = true
			if idx, ok := didIdx[db.Dict[s]]; ok {
				srcIdx[s] = idx
				official[s] = labelers[idx].Official
			} else {
				srcIdx[s] = t.internExtraSrc(db.Dict[s])
			}
		}
		m.LabelerIdx = srcIdx[s]
		m.Official = official[s]
		if !l.Neg && l.FreshSubject && kindPost[db.LabelKind[i]] {
			m.FreshPost = true
			m.RTSec = l.ReactionTime().Seconds()
		}
		meta = append(meta, m)
	}
	return meta
}
