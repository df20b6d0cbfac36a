package analysis

import (
	"errors"
	"fmt"
	"io"

	"blueskies/internal/core"
)

// DiskSource feeds the engine's accumulators by streaming one
// partition's record blocks out of a disk-backed partition store
// (core.Corpus) — the out-of-core execution mode. It reuses the
// streaming ingestion machinery (streamIngest), so at any moment the
// partition's residency is one decoded block plus accumulator state:
// the dataset itself is never materialized. Composed under MultiSource
// (NewDiskCorpusSource), an n-partition on-disk corpus evaluates
// through the usual two-level merge with O(one partition's blocks)
// memory per concurrently-traversing partition, and — like every other
// source pairing — the result is byte-identical to the in-memory
// evaluation of the same corpus.
type DiskSource struct {
	// Corpus is the opened store; Part the partition index within it.
	Corpus *core.Corpus
	Part   int
}

// NewDiskSource wraps partition k of an opened store as a Source.
func NewDiskSource(c *core.Corpus, k int) *DiskSource {
	return &DiskSource{Corpus: c, Part: k}
}

// Run implements Source: stream the partition's blocks through the
// accumulator groups in file order. Blocks arrive exactly as
// WritePartition laid them out (core.DatasetBlocks) — header + labeler
// announcements first, then each collection in dataset order — the
// same sequence DatasetSource ingests from memory. render is ignored
// (disk partitions snapshot only through MultiSource's coordinator,
// like any other batch partition).
func (src *DiskSource) Run(accs []Accumulator, workers int, _ RenderFunc) (*World, []Shard, *LabelTables, error) {
	base := core.CollectionCounts{}
	var records *core.CollectionCounts
	if m := src.Corpus.Manifest; src.Part < len(m.Partitions) {
		base = m.Partitions[src.Part].Base
		records = &m.Partitions[src.Part].Records
	}
	rs := &ReaderSource{
		Open:    func() (*core.PartitionReader, error) { return src.Corpus.OpenPartition(src.Part) },
		Base:    base,
		Records: records,
		Name:    fmt.Sprintf("partition %d", src.Part),
	}
	return rs.Run(accs, workers, nil)
}

// ReaderSource streams record blocks out of any partition block reader
// — an opened store partition (DiskSource delegates here) or block
// frames shipped over the wire (the remote worker's streamed-blocks
// mode). Residency is one decoded block plus accumulator state.
type ReaderSource struct {
	// Open yields the block reader; the source closes it after the run.
	Open func() (*core.PartitionReader, error)
	// Base is the partition's per-collection offset in the corpus.
	Base core.CollectionCounts
	// Records, when set, is the record count the blocks must deliver
	// exactly — the manifest's promise the Base prefix sums were
	// computed against. A mismatch fails the run: proceeding would
	// silently mis-attribute every later partition's indexes.
	Records *core.CollectionCounts
	// Name labels errors ("partition 3", "streamed blocks").
	Name string
}

// Run implements Source with the one-worker-order block traversal.
func (src *ReaderSource) Run(accs []Accumulator, workers int, _ RenderFunc) (*World, []Shard, *LabelTables, error) {
	pr, err := src.Open()
	if err != nil {
		return nil, nil, nil, err
	}
	defer pr.Close()
	si := newStreamIngest(accs, workers, src.Base)
	for {
		b, db, err := pr.NextDict()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			si.finish() // stop group goroutines before bailing
			return nil, nil, nil, fmt.Errorf("analysis: %s: %w", src.Name, err)
		}
		si.applyColumnar(*b, db)
	}
	si.finish()
	if src.Records != nil {
		if got := si.world.Counts(); got != *src.Records {
			return nil, nil, nil, fmt.Errorf("analysis: %s streamed %+v records but the manifest promises %+v: block file and manifest disagree",
				src.Name, got, *src.Records)
		}
	}
	return si.world, si.shards, si.tables, nil
}

// NewDiskCorpusSource wraps every partition of an opened store as a
// MultiSource: per-partition out-of-core traversals at their manifest
// base offsets, folded through the cross-partition two-level merge
// (with user-index rebasing when the manifest says indexes are
// partition-local). Partitions traverse concurrently, capped at
// GOMAXPROCS, so peak residency is O(GOMAXPROCS · one block), not
// O(corpus).
func NewDiskCorpusSource(c *core.Corpus) *MultiSource {
	ms := &MultiSource{Manifest: c.Manifest}
	for k := range c.Manifest.Partitions {
		ms.Sources = append(ms.Sources, NewDiskSource(c, k))
	}
	return ms
}

// RunAllDisk computes the full evaluation over a disk-backed corpus
// without ever materializing it, returning the reports in canonical
// order. For a store written from a split corpus the output is
// byte-identical to RunAll over the unsplit in-memory dataset at any
// partition and worker count (TestDiskParityGolden).
func RunAllDisk(c *core.Corpus, workers int) ([]*Report, error) {
	reports, err := NewFullEngine().Workers(workers).RunSource(NewDiskCorpusSource(c))
	if err != nil {
		return nil, err
	}
	return canonicalize(reports), nil
}
