package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// This file defines the partitioned-corpus model: a corpus is a set of
// Dataset partitions described by a Manifest instead of one monolith.
// Two producers emit partitions:
//
//   - Split carves one materialized Dataset into contiguous row-range
//     views (users are generated in DID order and the daily series in
//     date order, so user ranges are DID ranges and day ranges are time
//     windows). Index-bearing record fields (Post.AuthorIdx,
//     FeedGen.CreatorIdx) keep their corpus-global values, and the
//     manifest records each partition's per-collection base offsets —
//     analysis over the partitions reconstructs exactly the unsplit
//     evaluation (Manifest.SharedIndex = true).
//
//   - synth.GeneratePartitioned emits n independent datasets on
//     disjoint RNG sub-streams — one per simulated repo crawl — whose
//     index fields are partition-local (SharedIndex = false); consumers
//     rebase them by the manifest's user bases when merging.
//
// Corpus-level facts belong to the collection window, not to a
// repo-crawl shard: every partition carries the full labeler
// population (labels resolve against labeler indexes, which must agree
// across partitions), and the firehose counters ride on partition 0
// so that summing partitions never double-counts. The daily activity
// series is date-ordered, so Split shards it into per-partition date
// ranges like any other collection, while GeneratePartitioned — whose
// partitions are independent crawls of one shared window — keeps the
// whole series on partition 0.

// CollectionCounts holds one number per traversable dataset collection.
type CollectionCounts struct {
	Users, Posts, Days, Labels, FeedGens, Domains, HandleUpdates int
}

// Total sums all collections.
func (c CollectionCounts) Total() int {
	return c.Users + c.Posts + c.Days + c.Labels + c.FeedGens + c.Domains + c.HandleUpdates
}

// Add accumulates o into c.
func (c *CollectionCounts) Add(o CollectionCounts) {
	c.Users += o.Users
	c.Posts += o.Posts
	c.Days += o.Days
	c.Labels += o.Labels
	c.FeedGens += o.FeedGens
	c.Domains += o.Domains
	c.HandleUpdates += o.HandleUpdates
}

// Counts measures a dataset's per-collection record counts.
func (d *Dataset) Counts() CollectionCounts {
	return CollectionCounts{
		Users: len(d.Users), Posts: len(d.Posts), Days: len(d.Daily),
		Labels: len(d.Labels), FeedGens: len(d.FeedGens),
		Domains: len(d.Domains), HandleUpdates: len(d.HandleUpdates),
	}
}

// PartitionInfo describes one partition for planning: its position in
// the corpus (Base = per-collection offsets of its rows in concat
// order), its record counts, the generation seed that produced it
// (0 for split views), and the time window its daily series covers.
type PartitionInfo struct {
	Index                  int
	Seed                   int64
	WindowStart, WindowEnd time.Time
	Base                   CollectionCounts
	Records                CollectionCounts
	// ContentHash addresses the partition's block-file bytes
	// (PartitionWriter.ContentHash), recorded by disk spill paths.
	// Schedulers key worker block caches by it so corpora with
	// identical partition bytes share warm cache entries regardless of
	// manifest identity; empty for manifests that never touched disk.
	// Deliberately excluded from Manifest.Fingerprint, which hashes
	// generation identity, not store bytes.
	ContentHash string `json:",omitempty"`
}

// Manifest describes a partitioned corpus: the corpus-level facts a
// merged evaluation needs plus one PartitionInfo per partition.
type Manifest struct {
	Scale                  int
	Seed                   int64
	WindowStart, WindowEnd time.Time
	// SharedIndex reports whether index-bearing record fields
	// (Post.AuthorIdx, FeedGen.CreatorIdx) are corpus-global (Split) or
	// partition-local (independent generation); consumers rebase local
	// indexes by Partitions[k].Base.Users when merging.
	SharedIndex bool
	Partitions  []PartitionInfo
}

// Totals sums the per-partition record counts.
func (m *Manifest) Totals() CollectionCounts {
	var t CollectionCounts
	for i := range m.Partitions {
		t.Add(m.Partitions[i].Records)
	}
	return t
}

// Plan renders the partition plan as an aligned text table — the
// summary bskyanalyze prints before a partitioned run.
func (m *Manifest) Plan() string {
	var sb strings.Builder
	mode := "independent (partition-local indexes)"
	if m.SharedIndex {
		mode = "split (corpus-global indexes)"
	}
	fmt.Fprintf(&sb, "partition plan: %d partition(s), scale 1:%d, seed %d, %s\n",
		len(m.Partitions), m.Scale, m.Seed, mode)
	fmt.Fprintf(&sb, "%-4s %-20s %-23s %10s %10s %10s %8s %9s %8s %8s\n",
		"#", "seed", "window", "users", "posts", "labels", "days", "feedgens", "domains", "handles")
	for i := range m.Partitions {
		p := &m.Partitions[i]
		window := p.WindowStart.Format("2006-01-02") + ".." + p.WindowEnd.Format("2006-01-02")
		fmt.Fprintf(&sb, "%-4d %-20d %-23s %10d %10d %10d %8d %9d %8d %8d\n",
			p.Index, p.Seed, window,
			p.Records.Users, p.Records.Posts, p.Records.Labels, p.Records.Days,
			p.Records.FeedGens, p.Records.Domains, p.Records.HandleUpdates)
	}
	t := m.Totals()
	fmt.Fprintf(&sb, "%-4s %-20s %-23s %10d %10d %10d %8d %9d %8d %8d\n",
		"Σ", "", "", t.Users, t.Posts, t.Labels, t.Days, t.FeedGens, t.Domains, t.HandleUpdates)
	return sb.String()
}

// Fingerprint is a deterministic content-address for the corpus the
// manifest describes: the generation parameters, the window, and every
// partition's placement (seed, window, base offsets, record counts).
// It deliberately hashes the manifest — the store's identity authority
// — rather than the block bytes, so fingerprinting is O(partitions)
// and a store can be fingerprinted without reading it; two manifests
// collide only if they describe byte-identical generation inputs. The
// elastic scheduler (internal/sched) prefixes worker-side block-cache
// keys with it, so a re-run over an unchanged corpus finds its blocks
// already cached on the workers.
func (m *Manifest) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "m1|scale=%d|seed=%d|window=%d..%d|shared=%v|parts=%d",
		m.Scale, m.Seed, m.WindowStart.UnixNano(), m.WindowEnd.UnixNano(),
		m.SharedIndex, len(m.Partitions))
	for i := range m.Partitions {
		p := &m.Partitions[i]
		fmt.Fprintf(&sb, "|p%d:%d:%d..%d:%+v:%+v",
			p.Index, p.Seed, p.WindowStart.UnixNano(), p.WindowEnd.UnixNano(),
			p.Base, p.Records)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:12])
}

// partitionCut returns partition k's contiguous slice bounds over n
// records — the same balanced formula the analysis engine uses for
// worker ranges, so partition boundaries and worker boundaries nest.
func partitionCut(n, k, parts int) (int, int) {
	return n * k / parts, n * (k + 1) / parts
}

// Split carves a materialized dataset into n contiguous row-range
// partitions (zero-copy views of the original backing arrays) and the
// manifest describing them. Every partition carries the full labeler
// population and the corpus scale/window; the firehose counters ride
// on partition 0 only, so per-partition facts sum to the corpus facts.
// Index-bearing record fields stay corpus-global (SharedIndex).
func Split(ds *Dataset, n int) ([]*Dataset, *Manifest) {
	if n < 1 {
		n = 1
	}
	parts := make([]*Dataset, n)
	for k := 0; k < n; k++ {
		p := &Dataset{
			Scale:       ds.Scale,
			WindowStart: ds.WindowStart,
			WindowEnd:   ds.WindowEnd,
			Labelers:    ds.Labelers,
		}
		if k == 0 {
			p.Firehose = ds.Firehose
			p.NonBskyEvents = ds.NonBskyEvents
		}
		lo, hi := partitionCut(len(ds.Users), k, n)
		p.Users = ds.Users[lo:hi]
		lo, hi = partitionCut(len(ds.Posts), k, n)
		p.Posts = ds.Posts[lo:hi]
		lo, hi = partitionCut(len(ds.Daily), k, n)
		p.Daily = ds.Daily[lo:hi]
		lo, hi = partitionCut(len(ds.Labels), k, n)
		p.Labels = ds.Labels[lo:hi]
		lo, hi = partitionCut(len(ds.FeedGens), k, n)
		p.FeedGens = ds.FeedGens[lo:hi]
		lo, hi = partitionCut(len(ds.Domains), k, n)
		p.Domains = ds.Domains[lo:hi]
		lo, hi = partitionCut(len(ds.HandleUpdates), k, n)
		p.HandleUpdates = ds.HandleUpdates[lo:hi]
		parts[k] = p
	}
	return parts, BuildManifest(parts, ds.Scale, 0, true)
}

// BuildManifest derives a manifest from materialized partitions:
// per-collection base offsets are prefix sums in partition order
// (concat order). Partition windows fall back to the corpus window
// when a partition holds no daily series.
func BuildManifest(parts []*Dataset, scale int, seed int64, shared bool) *Manifest {
	m := &Manifest{Scale: scale, Seed: seed, SharedIndex: shared}
	for k, p := range parts {
		m.AddPartition(p.PartitionInfo(k), p.WindowStart, p.WindowEnd)
	}
	return m
}

// PartitionInfo snapshots what a manifest records about this dataset
// as partition k: its record counts and its daily-series time window,
// falling back to the dataset window when no daily series is present.
// Producers that release datasets after writing them (the disk spill)
// take this snapshot first and fold the snapshots with
// Manifest.AddPartition — the same two steps BuildManifest runs over a
// materialized set, so both paths assemble identical manifests.
func (d *Dataset) PartitionInfo(k int) PartitionInfo {
	info := PartitionInfo{
		Index:       k,
		WindowStart: d.WindowStart,
		WindowEnd:   d.WindowEnd,
		Records:     d.Counts(),
	}
	if len(d.Daily) > 0 {
		info.WindowStart = d.Daily[0].Date
		info.WindowEnd = d.Daily[len(d.Daily)-1].Date
	}
	return info
}

// AddPartition appends one partition snapshot in partition order:
// assigns its base offsets (the prefix sum over the partitions already
// added) and widens the corpus window by the partition dataset's
// window.
func (m *Manifest) AddPartition(info PartitionInfo, windowStart, windowEnd time.Time) {
	var base CollectionCounts
	if n := len(m.Partitions); n > 0 {
		last := &m.Partitions[n-1]
		base = last.Base
		base.Add(last.Records)
	}
	info.Base = base
	m.Partitions = append(m.Partitions, info)
	if m.WindowStart.IsZero() || (!windowStart.IsZero() && windowStart.Before(m.WindowStart)) {
		m.WindowStart = windowStart
	}
	if windowEnd.After(m.WindowEnd) {
		m.WindowEnd = windowEnd
	}
}

// MergeLabelers folds one partition's labeler enumeration into the
// corpus enumeration. Labels are attributed by labeler *index*, so
// every partition must agree on the enumeration order: each list must
// be a prefix of (or equal to) the longest one. Field values may
// differ between crawls (e.g. like counts); the first-seen record
// wins.
func MergeLabelers(merged, part []Labeler) ([]Labeler, error) {
	for i, lb := range part {
		if i < len(merged) {
			if merged[i].DID != lb.DID {
				return nil, fmt.Errorf("core: partitions disagree on labeler enumeration: index %d is %s vs %s",
					i, merged[i].DID, lb.DID)
			}
			continue
		}
		merged = append(merged, lb)
	}
	return merged, nil
}

// Concat flattens partitions back into one dataset in partition order —
// the reference corpus the partitioned evaluation is tested against.
// rebase adds each partition's user base to its Post.AuthorIdx /
// FeedGen.CreatorIdx fields (required for SharedIndex=false corpora,
// a no-op-by-construction for split views, which already carry global
// indexes). Labeler enumerations are merged with MergeLabelers;
// firehose counters sum.
func Concat(parts []*Dataset, rebase bool) (*Dataset, error) {
	out := &Dataset{}
	userBase := 0
	for _, p := range parts {
		if out.Scale == 0 {
			out.Scale = p.Scale
		}
		if out.WindowStart.IsZero() || (!p.WindowStart.IsZero() && p.WindowStart.Before(out.WindowStart)) {
			out.WindowStart = p.WindowStart
		}
		if p.WindowEnd.After(out.WindowEnd) {
			out.WindowEnd = p.WindowEnd
		}
		var err error
		if out.Labelers, err = MergeLabelers(out.Labelers, p.Labelers); err != nil {
			return nil, err
		}
		out.Firehose.Commits += p.Firehose.Commits
		out.Firehose.Identity += p.Firehose.Identity
		out.Firehose.Handle += p.Firehose.Handle
		out.Firehose.Tombstone += p.Firehose.Tombstone
		out.NonBskyEvents += p.NonBskyEvents
		out.Users = append(out.Users, p.Users...)
		if rebase && userBase > 0 {
			for _, post := range p.Posts {
				post.AuthorIdx += userBase
				out.Posts = append(out.Posts, post)
			}
			for _, fg := range p.FeedGens {
				fg.CreatorIdx += userBase
				out.FeedGens = append(out.FeedGens, fg)
			}
		} else {
			out.Posts = append(out.Posts, p.Posts...)
			out.FeedGens = append(out.FeedGens, p.FeedGens...)
		}
		out.Daily = append(out.Daily, p.Daily...)
		out.Labels = append(out.Labels, p.Labels...)
		out.Domains = append(out.Domains, p.Domains...)
		out.HandleUpdates = append(out.HandleUpdates, p.HandleUpdates...)
		userBase += len(p.Users)
	}
	return out, nil
}
