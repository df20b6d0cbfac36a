package analysis

import (
	"fmt"
	"time"

	"blueskies/internal/core"
)

// This file implements the single-pass evaluation engine. The legacy
// API computed every table and figure with its own full dataset scan
// (~25 independent passes); the Engine registers one Accumulator per
// report, streams each record block of a Source through every
// registered accumulator exactly once, and renders from the merged
// state. The Source implementations (batch, stream, disk, remote
// state, multi-partition) are enumerated in doc.go.
//
// Determinism contract: for a fixed corpus the engine produces
// byte-identical reports at any worker count, from any source. Every
// local source feeds one block ingest (streamIngest). Four rules make
// that hold:
//   - each collection's records arrive in dataset order, and each
//     accumulator consumes its blocks sequentially: workers split the
//     accumulators, never the records, so every shard equals a
//     one-worker scan;
//   - the feeder assigns label intern ids once per block, in
//     first-occurrence order, and partition states fold in partition
//     order;
//   - shard state never sums floating point across records (integer
//     counters and ordered float slices only; float math happens once
//     at render);
//   - every render sort carries a total tie-break.

// Collection identifies one record stream of a corpus traversal.
// Accumulators declare the streams they consume via Needs; the engine
// skips streams nobody registered for.
type Collection uint8

// Traversable dataset collections.
const (
	ColUsers Collection = 1 << iota
	ColPosts
	ColDays
	ColLabels
	ColFeedGens
	ColDomains
	ColHandleUpdates
)

// World is the render-time corpus context shared by every accumulator:
// the scalar dataset facts, the labeler population, and the per-user
// follower degrees that the feed-generator reports join against. The
// ingest grows it append-only as header and record blocks arrive (so a
// streaming snapshot sees a consistent prefix of the corpus).
type World struct {
	Scale                  int
	WindowStart, WindowEnd time.Time
	Firehose               core.EventCounts
	NonBskyEvents          int64
	// Labelers is the announced labeler population, in DID-index order.
	// Streams may extend it append-only; labels must never precede
	// their labeler's announcement.
	Labelers []core.Labeler

	// Record counts per collection: records ingested so far.
	Users, Posts, Days, Labels, FeedGens, Domains, HandleUpdates int

	// followers is the append-only follower-degree column, one entry
	// per user ingested so far.
	followers []int32
}

// Followers reports the follower degree of user index i. A streaming
// snapshot may render a feed-generator creator whose user record has
// not arrived yet; those read as degree 0 until it does.
func (w *World) Followers(i int) int {
	if i < len(w.followers) {
		return int(w.followers[i])
	}
	return 0
}

// LabelMeta carries per-label values the engine computes once per
// record and shares across all label accumulators: interned ids for
// the subject URI, the label value, and the source labeler, plus the
// derived fields every consumer used to recompute.
type LabelMeta struct {
	// LabelerIdx indexes World.Labelers. Sources not announced as
	// labelers get stable negative ids (-2-k via LabelTables.ExtraSrcs)
	// so distinct unknown DIDs stay distinguishable.
	LabelerIdx int32
	// URIID and ValID index LabelTables.URIs / LabelTables.Vals.
	URIID int32
	ValID int32
	// MonthIdx is Applied's month as year*12+month-1 (Figure 4 bucket).
	MonthIdx int32
	// Official marks labels from an official Bluesky labeler.
	Official bool
	// FreshPost marks non-negation labels on fresh posts — the
	// reaction-time sample of Table 6 / Figures 5–6.
	FreshPost bool
	// RTSec is the reaction time in seconds (set when FreshPost).
	RTSec float64
}

// LabelTables are the intern tables backing LabelMeta ids. Each
// partition's ingest grows one table append-only, and the level-two
// merge folds partition tables into one corpus table in partition
// order. First-occurrence order is preserved, so the merged tables are
// identical to a sequential scan's.
type LabelTables struct {
	URIs      []string
	Vals      []string
	ExtraSrcs []string // unknown source DIDs; id -2-k ↔ ExtraSrcs[k]

	uriID map[string]int32
	valID map[string]int32
	srcID map[string]int32
}

func newLabelTables() *LabelTables {
	return &LabelTables{
		uriID: make(map[string]int32, 1024),
		valID: make(map[string]int32, 64),
	}
}

func (t *LabelTables) internURI(s string) int32 {
	if id, ok := t.uriID[s]; ok {
		return id
	}
	id := int32(len(t.URIs))
	t.URIs = append(t.URIs, s)
	t.uriID[s] = id
	return id
}

func (t *LabelTables) internVal(s string) int32 {
	if id, ok := t.valID[s]; ok {
		return id
	}
	id := int32(len(t.Vals))
	t.Vals = append(t.Vals, s)
	t.valID[s] = id
	return id
}

func (t *LabelTables) internExtraSrc(s string) int32 {
	if t.srcID == nil {
		t.srcID = make(map[string]int32, 8)
	}
	if id, ok := t.srcID[s]; ok {
		return id
	}
	id := int32(-2 - len(t.ExtraSrcs))
	t.ExtraSrcs = append(t.ExtraSrcs, s)
	t.srcID[s] = id
	return id
}

// LabelChunk is one block of the label stream with its shared
// per-record metadata. Meta[i] describes Labels[i]; NumURIs/NumVals
// snapshot the ingest's intern-table sizes at dispatch time (ids below
// those bounds are stable for the rest of the run).
//
// The chunk and its Meta slice are only valid for the duration of the
// Shard.Labels call; every accumulator group reads the same chunk.
// Accumulators that collect label data must copy what they keep (ids
// are plain ints; copying them is the point) and never retain the
// chunk or alias its slices.
type LabelChunk struct {
	Labels  []core.Label
	Meta    []LabelMeta
	NumURIs int
	NumVals int
	Base    int
}

// MergeCtx carries the id remappings for folding one partition's
// label-derived state into the corpus id space. Remap slices are
// indexed by the source's local ids.
type MergeCtx struct {
	URIRemap []int32
	ValRemap []int32
	SrcRemap []int32 // index k remaps local extra-src id -2-k
	NumURIs  int
	NumVals  int
	// Users offsets partition-local user indexes (Post.AuthorIdx /
	// FeedGen.CreatorIdx captured in shard state) into the merged
	// corpus index space. It is 0 for split partitions, whose indexes
	// are corpus-global already; independent partition datasets carry
	// their user base here.
	Users int
}

// RemapUser translates a (possibly partition-local) user index.
func (mc *MergeCtx) RemapUser(i int) int {
	if mc == nil {
		return i
	}
	return i + mc.Users
}

// RemapSrc translates a (possibly negative) source id.
func (mc *MergeCtx) RemapSrc(id int32) int32 {
	if id >= -1 {
		return id // labeler indexes and the -1 sentinel are global already
	}
	return mc.SrcRemap[-2-id]
}

// Shard is one partition's state of one accumulator. The engine calls
// the methods matching the accumulator's Needs mask with contiguous
// record blocks, in order; base is the block's global start index.
type Shard interface {
	Users(us []core.User, base int)
	Posts(ps []core.Post, base int)
	Days(days []core.DayActivity, base int)
	// Labels must not retain c or c.Meta past the call (see
	// LabelChunk).
	Labels(c *LabelChunk)
	FeedGens(fs []core.FeedGen, base int)
	Domains(doms []core.Domain, base int)
	HandleUpdates(hus []core.HandleUpdate, base int)
}

// NopShard implements every Shard method as a no-op; accumulators
// embed it and override only the streams they consume.
type NopShard struct{}

func (NopShard) Users([]core.User, int)                 {}
func (NopShard) Posts([]core.Post, int)                 {}
func (NopShard) Days([]core.DayActivity, int)           {}
func (NopShard) Labels(*LabelChunk)                     {}
func (NopShard) FeedGens([]core.FeedGen, int)           {}
func (NopShard) Domains([]core.Domain, int)             {}
func (NopShard) HandleUpdates([]core.HandleUpdate, int) {}

// StateBounds carries the intern-table sizes of the partition state a
// shard travels with. UnmarshalShard validates every table-indexed id
// in the decoded state against them, so hostile or stale wire bytes
// can never index out of range during the level-two fold.
type StateBounds struct {
	URIs      int // len(LabelTables.URIs)
	Vals      int // len(LabelTables.Vals)
	ExtraSrcs int // len(LabelTables.ExtraSrcs)
	Labelers  int // len(World.Labelers) of the same partition state
}

// checkSrc validates a LabelMeta-style source id: labeler indexes and
// the -1 sentinel pass through; extra-source ids must resolve inside
// the partition's ExtraSrcs table.
func (b StateBounds) checkSrc(id int32) error {
	if id < -1 && int(-2-id) >= b.ExtraSrcs {
		return fmt.Errorf("analysis: source id %d outside the %d-entry extra-src table", id, b.ExtraSrcs)
	}
	return nil
}

// Accumulator computes one (occasionally several) of the paper's
// reports from a streamed corpus traversal.
type Accumulator interface {
	// IDs lists the report ids this accumulator renders, in render
	// order (e.g. the shared reaction-time accumulator yields T6, F5).
	IDs() []string
	// Needs is the mask of collections this accumulator consumes.
	Needs() Collection
	// NewShard allocates partition-local state. The ingest allocates
	// shards before it knows the final population sizes, so shards
	// presize from w but must tolerate later growth (labeler indexes
	// in particular).
	NewShard(w *World) Shard
	// Merge folds partition state src into dst. The level-two merge
	// folds partitions in partition order; mc carries src's id and
	// user-index remapping.
	Merge(dst, src Shard, mc *MergeCtx)
	// Render produces the reports from merged state. t holds the
	// global label intern tables (nil without ColLabels). Render must
	// not mutate s: streaming snapshots render the same shard again as
	// more records arrive.
	Render(w *World, s Shard, t *LabelTables) []*Report
	// MarshalShard serializes a level-one-merged shard as DAG-CBOR —
	// the wire form a remote worker returns for the level-two fold.
	// The encoding is deterministic: identical state yields identical
	// bytes. Stateless accumulators return nil.
	MarshalShard(s Shard) ([]byte, error)
	// UnmarshalShard reconstructs a shard from MarshalShard bytes. The
	// result must behave exactly like the in-process shard under Merge
	// and Render; every table-indexed id is validated against b so the
	// fold can trust decoded state as far as memory safety goes.
	UnmarshalShard(data []byte, b StateBounds) (Shard, error)
}

// Engine runs registered accumulators over a record source in one
// traversal.
type Engine struct {
	accs    []Accumulator
	workers int
}

// NewEngine builds an engine over the given accumulators.
func NewEngine(accs ...Accumulator) *Engine { return &Engine{accs: accs} }

// Workers fixes the number of accumulator groups each partition's
// ingest runs on goroutines of their own. 0 (the default) means
// min(GOMAXPROCS, #accumulators) on every source; a multi-partition
// run divides GOMAXPROCS among its partitions.
func (e *Engine) Workers(n int) *Engine {
	e.workers = n
	return e
}

// RunSource traverses src once and renders every registered
// accumulator's reports, in registration order (flattening
// multi-report accumulators in their render order).
func (e *Engine) RunSource(src Source) ([]*Report, error) {
	world, merged, tables, err := src.Run(e.accs, e.workers, e.render)
	if err != nil {
		return nil, err
	}
	return e.render(world, merged, tables), nil
}

// Run traverses a materialized dataset (DatasetSource semantics).
func (e *Engine) Run(ds *core.Dataset) []*Report {
	reports, _ := e.RunSource(NewDatasetSource(ds)) // DatasetSource cannot fail
	return reports
}

// RunSources traverses a set of partition sources as one corpus: each
// partition runs level one (its own ingest), then the partition states
// fold through the cross-partition level-two merge (MultiSource).
func (e *Engine) RunSources(srcs ...Source) ([]*Report, error) {
	return e.RunSource(&MultiSource{Sources: srcs})
}

// render produces all reports from merged per-accumulator state; it is
// also the snapshot callback handed to sources.
func (e *Engine) render(w *World, merged []Shard, t *LabelTables) []*Report {
	out := make([]*Report, 0, len(e.accs))
	for ai, a := range e.accs {
		out = append(out, a.Render(w, merged[ai], t)...)
	}
	return out
}

// monthTime converts a LabelMeta.MonthIdx back to its month start.
func monthTime(idx int32) time.Time {
	return time.Date(int(idx/12), time.Month(idx%12+1), 1, 0, 0, 0, 0, time.UTC)
}

// runOne runs a single accumulator sequentially over the whole
// dataset — the execution mode behind the legacy per-table functions.
func runOne(ds *core.Dataset, a Accumulator) []*Report {
	reports, _ := NewEngine(a).Workers(1).RunSource(NewDatasetSource(ds))
	return reports
}

// runOneShard is runOne without rendering, for the typed-row helpers
// that need merged state rather than a Report.
func runOneShard(ds *core.Dataset, a Accumulator) (*World, Shard, *LabelTables) {
	w, merged, t, _ := NewDatasetSource(ds).Run([]Accumulator{a}, 1, nil)
	return w, merged[0], t
}

// canonicalOrder is the report order of the paper's evaluation
// (AllReports and RunAll emit it).
var canonicalOrder = []string{
	"S4", "S4P", "S5", "S6", "S9",
	"T1", "T2", "T3", "T4", "T5", "T6",
	"F1", "F2", "F3", "F4", "F5", "F6",
	"F7", "F8", "F9", "F10", "F11", "F12",
}

// NewFullEngine registers every accumulator of the paper's evaluation.
func NewFullEngine() *Engine {
	return NewEngine(
		newSection4Acc(), newPostLangAcc(), newSection5Acc(), newSection6Acc(), newDiscussionAcc(),
		newTable1Acc(), newTable2Acc(), newTable3Acc(), newTable4Acc(), newTable5Acc(),
		newReactionAcc(), // T6 + F5
		newFigure1Acc(), newFigure2Acc(), newFigure3Acc(), newFigure4Acc(),
		newFigure6Acc(), newFigure7Acc(), newFigure8Acc(), newFigure9Acc(),
		newFigure10Acc(), newFigure11Acc(), newFigure12Acc(),
	)
}

// RunAll computes the full evaluation in one pass with the given
// worker count (0 = min(GOMAXPROCS, #accumulators)) and returns the
// reports in canonical order. Output is byte-identical to AllReports
// at any worker count.
func RunAll(ds *core.Dataset, workers int) []*Report {
	reports := NewFullEngine().Workers(workers).Run(ds)
	return canonicalize(reports)
}

// RunAllPartitioned computes the full evaluation over a partitioned
// corpus (per-partition ingests, two-level merge) and returns the
// reports in canonical order. For a split corpus the
// output is byte-identical to RunAll over the unsplit dataset at any
// partition count and worker count; m may be nil for single-corpus
// row-range partitions.
func RunAllPartitioned(parts []*core.Dataset, m *core.Manifest, workers int) ([]*Report, error) {
	src := NewPartitionedSource(parts, m)
	reports, err := NewFullEngine().Workers(workers).RunSource(src)
	if err != nil {
		return nil, err
	}
	return canonicalize(reports), nil
}

// Canonicalize reorders reports into the paper's canonical evaluation
// order, dropping ids outside it. Engine runs return reports in
// accumulator-registration order; RunAll and streaming consumers that
// want the paper's ordering pass them through here.
func Canonicalize(reports []*Report) []*Report { return canonicalize(reports) }

func canonicalize(reports []*Report) []*Report {
	byID := make(map[string]*Report, len(reports))
	for _, r := range reports {
		byID[r.ID] = r
	}
	out := make([]*Report, 0, len(canonicalOrder))
	for _, id := range canonicalOrder {
		if r, ok := byID[id]; ok {
			out = append(out, r)
		}
	}
	return out
}
