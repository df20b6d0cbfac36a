package synth

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"blueskies/internal/core"
)

// This file holds the calibration targets, the stage/RNG-stream
// conventions, and the top-level generators; see doc.go for the
// package architecture.

// Config parameterizes dataset generation.
type Config struct {
	// Scale divides the paper's absolute counts (≥1).
	Scale int
	// Seed drives all randomness.
	Seed int64
}

// Paper-reported absolute targets (see §3–§7 and DESIGN.md).
const (
	TargetUsers          = 5_523_919
	TargetPosts          = 225_461_969
	TargetLikes          = 740_000_000
	TargetFollows        = 160_900_000
	TargetReposts        = 77_900_000
	TargetBlocks         = 10_800_000
	TargetFirehoseEvents = 279_289_739
	TargetNonBskyEvents  = 1_855
	TargetLabelTotal     = 3_402_009
	TargetRescinded      = 23_394
	TargetFeedGens       = 43_063
	TargetReachableFGs   = 40_398
	TargetHandleUpdates  = 44_449
	TargetUpdatingDIDs   = 31_494
	TargetAltHandles     = 57_202
	TargetRegDomains     = 51_879
	TargetDIDWeb         = 6
)

// Firehose event-type shares (Table 1).
const (
	ShareCommits   = 0.9978
	ShareIdentity  = 0.0019
	ShareHandle    = 0.0002
	ShareTombstone = 0.0001
)

// Timeline landmarks.
var (
	LaunchDate     = date(2022, 11, 17) // invite-only launch
	PublicDate     = date(2024, 2, 6)   // opened to the public
	LabelersOpen   = date(2024, 3, 15)  // community labelers enabled
	FeedGensLaunch = date(2023, 5, 1)
	OfficialLbl    = date(2023, 4, 1) // first official labeler
	WindowStart    = date(2024, 3, 6) // firehose collection start
	WindowEnd      = date(2024, 5, 1)
	PTSurge        = date(2024, 4, 10) // Portuguese community surge
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// Generation stage ids. Each gen* stage draws from its own RNG stream
// (seed ⊕ stage·φ64), so stages can run concurrently while the output
// stays byte-for-byte deterministic in (Scale, Seed). genPosts
// additionally fans out over postShards fixed sub-streams — fixed, not
// GOMAXPROCS-derived, so the dataset is identical at any parallelism.
const (
	stageUsers uint64 = iota + 1
	stageActivity
	stagePosts
	stageIdentity
	stageModeration
	stageFeedGens
	// stagePostShard0 + k seeds post shard k.
	stagePostShard0 uint64 = 100
	// stageHistShard0 + k seeds historic-label shard k.
	stageHistShard0 uint64 = 200
	// stageUserShard0 + k seeds user shard k.
	stageUserShard0 uint64 = 300
	// stagePartition0 + k derives partition k's seed for
	// GeneratePartitioned — a whole per-partition stage space disjoint
	// from the corpus streams and from every other partition's.
	stagePartition0 uint64 = 1000
)

// stageRNG derives a stage's deterministic RNG stream. The golden
// ratio multiplier (splitmix64 increment) decorrelates the nearby
// stage ids before they perturb the user seed.
func stageRNG(seed int64, stage uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(uint64(seed) ^ stage*0x9E3779B97F4A7C15)))
}

// ScenarioRNG derives the deterministic RNG stream a named scenario
// transform (internal/scenario) draws from. The stage id is the
// FNV-1a hash of the name offset far above every generation stage id,
// so scenario randomness is disjoint both from generation and from
// other scenarios — mutating a corpus never re-rolls the base
// population.
func ScenarioRNG(seed int64, name string) *rand.Rand {
	const (
		fnvOffset64    = 0xcbf29ce484222325
		fnvPrime64     = 0x100000001b3
		stageScenario0 = uint64(1) << 32
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return stageRNG(seed, stageScenario0+h)
}

// SeededClock returns a deterministic record clock for seeding
// simulated deployments (bskysim's network mode): readings start at a
// seed-derived offset inside the paper's collection window and
// advance one second per call. Two runs with the same seed stamp
// byte-identical timestamps; different seeds land at different window
// offsets. This is the injected-Clock counterpart to the calibrated
// generation path — record producers outside synth must never reach
// for time.Now (the walltime analyzer enforces it in
// determinism-critical packages).
func SeededClock(seed int64) func() time.Time {
	windowSecs := uint64(WindowEnd.Sub(WindowStart) / time.Second)
	t := WindowStart.Add(time.Duration(uint64(seed)*0x9E3779B97F4A7C15%windowSecs) * time.Second)
	return func() time.Time {
		now := t
		t = t.Add(time.Second)
		return now
	}
}

// Generate produces the full dataset, running the generation stages
// concurrently along their dependency order:
//
//	users ─→ posts ─→ identity ─→ { moderation ∥ feedgens }
//	activity (independent)
//
// posts must precede identity (identity rewrites the six did:web DIDs
// that post URIs embed), and moderation/feedgens read the identity
// fields but touch disjoint user fields, so they run in parallel.
func Generate(cfg Config) *core.Dataset {
	return generate(cfg, false)
}

// generateSequential runs the same stages with the same per-stage
// streams strictly serially — the reference path the concurrent
// schedule is tested against.
func generateSequential(cfg Config) *core.Dataset {
	return generate(cfg, true)
}

func generate(cfg Config, sequential bool) *core.Dataset {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	ds := &core.Dataset{
		Scale:       cfg.Scale,
		WindowStart: WindowStart,
		WindowEnd:   WindowEnd,
	}
	if sequential {
		genUsers(ds, cfg.Seed, true, 0, cfg.Scale)
		genActivity(ds, stageRNG(cfg.Seed, stageActivity))
		genPosts(ds, cfg.Seed, true)
		genIdentity(ds, stageRNG(cfg.Seed, stageIdentity), "")
		genModeration(ds, cfg.Seed, true, 0)
		genFeedGens(ds, stageRNG(cfg.Seed, stageFeedGens), cfg.Scale)
		return ds
	}
	var activity sync.WaitGroup
	activity.Add(1)
	go func() {
		defer activity.Done()
		genActivity(ds, stageRNG(cfg.Seed, stageActivity))
	}()
	genUsers(ds, cfg.Seed, false, 0, cfg.Scale)
	genPosts(ds, cfg.Seed, false)
	genIdentity(ds, stageRNG(cfg.Seed, stageIdentity), "")
	var tail sync.WaitGroup
	tail.Add(1)
	go func() {
		defer tail.Done()
		genModeration(ds, cfg.Seed, false, 0)
	}()
	genFeedGens(ds, stageRNG(cfg.Seed, stageFeedGens), cfg.Scale)
	tail.Wait()
	activity.Wait()
	return ds
}

// didPartitionStride spaces partition DID numbering so independently
// generated partitions never collide on identifiers (the 24-digit
// did:plc numbering leaves ample room above any per-partition count).
const didPartitionStride = 1_000_000_000_000

// partitionSeed derives partition k's generation seed — a disjoint
// per-partition stage space under the corpus seed.
func partitionSeed(seed int64, k int) int64 {
	return int64(uint64(seed) ^ (stagePartition0+uint64(k))*0x9E3779B97F4A7C15)
}

// GeneratePartitioned produces the corpus of Generate's calibration as
// n independent datasets — one per simulated repo-crawl shard — on
// disjoint RNG sub-streams, plus the manifest describing them. Unlike
// core.Split (row-range views of one monolith), the partitions are
// generated independently and in parallel, and the whole corpus is
// never materialized in one heap: each partition owns its slabs and
// can be generated, streamed, and released on its own.
//
// The volume targets divide across partitions (each partition runs the
// staged generator at Scale·n), while the corpus-level facts are
// generated once from the corpus seed and shared: every partition
// carries the same labeler enumeration (labels are attributed by
// labeler index, which must agree across partitions), and the firehose
// window facts — the daily activity series and event counters — ride
// on partition 0, so partition facts sum to corpus facts without
// double-counting. Index-bearing record fields (Post.AuthorIdx,
// FeedGen.CreatorIdx) are partition-local; the manifest's user bases
// (SharedIndex=false) tell the analysis merge how to rebase them.
//
// Deterministic in (Scale, Seed, n) at any parallelism level; the
// partition set is NOT byte-identical to Generate's monolith (the
// streams are disjoint by construction), but evaluating it through the
// two-level merge matches the flat evaluation of the concatenated
// partitions exactly (TestFederatedPartitionsMatchConcat).
func GeneratePartitioned(cfg Config, n int) ([]*core.Dataset, *core.Manifest) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if n < 1 {
		n = 1
	}
	// Corpus-level stages on the corpus seed's streams.
	labelers := genLabelers(stageRNG(cfg.Seed, stageModeration))
	shared := &core.Dataset{Scale: cfg.Scale, WindowStart: WindowStart, WindowEnd: WindowEnd}
	genActivity(shared, stageRNG(cfg.Seed, stageActivity))

	parts := make([]*core.Dataset, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			parts[k] = generatePartition(cfg, n, k, labelers)
		}(k)
	}
	wg.Wait()
	parts[0].Daily = shared.Daily
	parts[0].Firehose = shared.Firehose
	parts[0].NonBskyEvents = shared.NonBskyEvents

	m := core.BuildManifest(parts, cfg.Scale, cfg.Seed, false)
	for k := range m.Partitions {
		m.Partitions[k].Seed = partitionSeed(cfg.Seed, k)
	}
	return parts, m
}

// generatePartition runs the staged generator for one partition: the
// usual stage DAG minus the corpus-level activity stage, on the
// partition seed's streams, with volume targets divided by n.
func generatePartition(cfg Config, n, k int, labelers []core.Labeler) *core.Dataset {
	seed := partitionSeed(cfg.Seed, k)
	ds := &core.Dataset{
		Scale:       cfg.Scale * n,
		WindowStart: WindowStart,
		WindowEnd:   WindowEnd,
		Labelers:    labelers,
	}
	anchorScale := 0
	if k == 0 {
		anchorScale = cfg.Scale // corpus-unique anchors keep corpus-scale magnitudes
	}
	genUsers(ds, seed, false, int64(k)*didPartitionStride, anchorScale)
	genPosts(ds, seed, false)
	genIdentity(ds, stageRNG(seed, stageIdentity), fmt.Sprintf("p%d-", k))
	var tail sync.WaitGroup
	tail.Add(1)
	go func() {
		defer tail.Done()
		genModeration(ds, seed, false, k)
	}()
	genFeedGens(ds, stageRNG(seed, stageFeedGens), anchorScale)
	tail.Wait()
	return ds
}

// scaled divides a paper target by the configured scale, with a floor
// of min (structural populations keep shape at any scale).
func scaled(target, scale, minimum int) int {
	n := target / scale
	if n < minimum {
		return minimum
	}
	return n
}

// lognormal samples a log-normal value with the given median and
// geometric spread (sigma of the underlying normal).
func lognormal(rng *rand.Rand, median float64, sigma float64) float64 {
	return median * exp(rng.NormFloat64()*sigma)
}

// powerlaw samples a discrete power-law value in [1, maxV] with
// exponent alpha (>1) by inverse-CDF sampling of a bounded Pareto;
// larger alpha = steeper tail. The terms that depend only on (alpha,
// maxV) are computed once, so a sample costs one pow.
type powerlaw struct {
	maxV   int
	c, inv float64
}

func newPowerlaw(alpha float64, maxV int) powerlaw {
	return powerlaw{maxV: maxV, c: 1 - pow(float64(maxV), 1-alpha), inv: 1 / (1 - alpha)}
}

func (p powerlaw) sample(rng *rand.Rand) int {
	u := rng.Float64()
	x := pow(1-u*p.c, p.inv)
	n := int(x)
	if n < 1 {
		n = 1
	}
	if n > p.maxV {
		n = p.maxV
	}
	return n
}

// padded returns prefix + v + suffix with v (≥0) in decimal,
// left-padded with zeros to width digits — fmt's %0*d without fmt; a
// wider v keeps all its digits. It builds the string in *buf, which
// the per-record loops reuse across records.
func padded(buf *[]byte, prefix string, v int64, width int, suffix string) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], v, 10)
	b := append((*buf)[:0], prefix...)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	b = append(append(b, d...), suffix...)
	*buf = b
	return string(b)
}

// dayTable returns the midnights of the n days from start on.
func dayTable(start time.Time, n int) []time.Time {
	days := make([]time.Time, n)
	for i := range days {
		days[i] = start.AddDate(0, 0, i)
	}
	return days
}
