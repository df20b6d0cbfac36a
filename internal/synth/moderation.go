package synth

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blueskies/internal/core"
)

// histShards is the fixed fan-out of the historic-label loop — a
// constant, not GOMAXPROCS, so the dataset is identical at any
// parallelism (same rule as postShards).
const histShards = 8

// labelerSpec encodes one labeler from Table 6 / Table 3: its label
// volume on fresh posts, top values, median reaction time with
// inter-quartile spread, and operational character.
type labelerSpec struct {
	Name      string
	Official  bool
	Values    []string
	Count     int     // labels applied to fresh posts (Table 6)
	MedianRT  float64 // seconds
	SigmaRT   float64 // log-normal spread
	Automated bool
	Hosting   string
	Likes     int
	Operator  string
	About     string
}

// labelerSpecs reproduces the active labeler population: the official
// Bluesky labeler plus the community services of Tables 3 and 6.
var labelerSpecs = []labelerSpec{
	{Name: "Bluesky Moderation", Official: true,
		Values: []string{"porn", "sexual", "nudity", "graphic-media", "corpse", "gore", "spam", "sexual-figurative", "intolerant", "rude", "threat", "!takedown", "!warn", "!hide"},
		Count:  279_002, MedianRT: 1.76, SigmaRT: 0.9, Automated: true, Hosting: "cloud",
		Operator: "Bluesky PBC", About: "official moderation"},
	{Name: "Bad Accessibility / Alt Text Labeler",
		Values: []string{"no-alt-text", "non-alt-text", "mis-alt-text", "alt-text-ok"},
		Count:  1_360_224, MedianRT: 0.58, SigmaRT: 0.3, Automated: true, Hosting: "cloud",
		Likes: 99, Operator: "@baatl.bsky.social", About: "Labels posts for missing/invalid alt text."},
	{Name: "XBlock Screenshot Labeler",
		Values: []string{"twitter-screenshot", "bluesky-screenshot", "uncategorised-screenshot", "tumblr-screenshot"},
		Count:  76_599, MedianRT: 3.70, SigmaRT: 1.1, Automated: true, Hosting: "cloud",
		Likes: 301, Operator: "@aendra.com", About: "Uses a machine-learning model to classify screenshots by origin."},
	{Name: "No GIFS Please",
		Values: []string{"tenor-gif", "tenor-gif-no-text"},
		Count:  73_875, MedianRT: 0.35, SigmaRT: 0.4, Automated: true, Hosting: "cloud",
		Likes: 88, About: "Labels GIFs."},
	{Name: "AI Imagery Labeler",
		Values: []string{"ai-imagery"},
		Count:  56_517, MedianRT: 0.82, SigmaRT: 0.35, Automated: true, Hosting: "cloud",
		Likes: 546, About: "Labels AI-related posts by hashtags."},
	{Name: "@ff14labeler.bsky.social",
		Values: []string{"shadowbringers", "endwalker", "dawntrail", "stormblood", "heavensward", "arr"},
		Count:  10_024, MedianRT: 2.07, SigmaRT: 0.7, Automated: true, Hosting: "cloud",
		Likes: 15, Operator: "@usounds.work", About: "Labels Final Fantasy 14 content spoilers."},
	{Name: "AI Related Content",
		Values: []string{"ai-related-content", "spoiler", "test-label"},
		Count:  7_646, MedianRT: 1.32, SigmaRT: 0.6, Automated: true, Hosting: "cloud"},
	{Name: "Community Safety",
		Values: []string{"trolling", "transphobia", "racial-intolerance", "harassment"},
		Count:  876, MedianRT: 13_911.90, SigmaRT: 2.2, Automated: false, Hosting: "cloud"},
	{Name: "Fur Labels",
		Values: []string{"pup", "fatfur", "diaper", "anthro"},
		Count:  631, MedianRT: 34_408.43, SigmaRT: 2.1, Automated: false, Hosting: "residential"},
	{Name: "Beans",
		Values: []string{"beans"},
		Count:  49, MedianRT: 90.39, SigmaRT: 2.8, Automated: false, Hosting: "residential"},
	{Name: "Vibes Patrol",
		Values: []string{"simping", "bad-selfies", "cringe", "yelling", "oversharing"},
		Count:  32, MedianRT: 70_413.53, SigmaRT: 2.4, Automated: false, Hosting: "residential"},
	{Name: "Link Quality",
		Values: []string{"lowquality", "shorturl", "unknown-source"},
		Count:  26, MedianRT: 104_584.57, SigmaRT: 2.6, Automated: false, Hosting: "cloud"},
	{Name: "ALF Appreciation",
		Values: []string{"alf", "sensual-alf", "the-format"},
		Count:  18, MedianRT: 38_417.71, SigmaRT: 2.2, Automated: false, Hosting: "residential"},
	{Name: "Severity Tester",
		Values: []string{"severity-alert-blurs-content", "severity-alert-blurs-media", "severity-alert-blurs-none"},
		Count:  18, MedianRT: 937.55, SigmaRT: 1.4, Automated: false, Hosting: "cloud"},
	{Name: "JP Spam Watch",
		Values: []string{"spam-aff-ja", "spam", "porn"},
		Count:  16, MedianRT: 534_935.10, SigmaRT: 1.8, Automated: false, Hosting: "cloud"},
	{Name: "Based Detector",
		Values: []string{"so-true", "epic", "based", "ratio"},
		Count:  16, MedianRT: 526.03, SigmaRT: 2.5, Automated: false, Hosting: "residential"},
	{Name: "Trigger Warnings",
		Values: []string{"!warn", "threat", "triggerwarning", "violence"},
		Count:  14, MedianRT: 109_931.10, SigmaRT: 2.7, Automated: false, Hosting: "cloud"},
	{Name: "Phobia Screens",
		Values: []string{"coulro", "arachno", "lepidoptero", "ophidio", "trypo"},
		Count:  11, MedianRT: 260_511.95, SigmaRT: 2.3, Automated: false, Hosting: "residential"},
	{Name: "Discourse Meter",
		Values: []string{"neutral-pro-discourse", "anti-discourse"},
		Count:  10, MedianRT: 2_120.64, SigmaRT: 3.0, Automated: false, Hosting: "cloud"},
	{Name: "Spoiler Shield",
		Values: []string{"spoilers", "!no-promote", "!no-unauthenticated"},
		Count:  4, MedianRT: 1_585_404.55, SigmaRT: 2.0, Automated: false, Hosting: "cloud"},
	{Name: "Nipps",
		Values: []string{"nipps", "no-church", "non-handshake"},
		Count:  4, MedianRT: 154_416.53, SigmaRT: 1.6, Automated: false, Hosting: "cloud"},
	{Name: "Generic Warnings",
		Values: []string{"!warn", "porn", "spam"},
		Count:  3, MedianRT: 5_203.95, SigmaRT: 2.4, Automated: false, Hosting: "cloud"},
	{Name: "Disinfo Watch",
		Values: []string{"amplifying-disinfo"},
		Count:  3, MedianRT: 5_445.06, SigmaRT: 1.5, Automated: false, Hosting: "cloud"},
	{Name: "Bean Haters",
		Values: []string{"beanhate", "feature-scold"},
		Count:  2, MedianRT: 5_900.41, SigmaRT: 1.2, Automated: false, Hosting: "residential"},
}

// Announced-but-silent labelers complete the §6.1 population: 62
// announced, 46 functional, 36 with ≥1 label.
const (
	totalAnnouncedLabelers  = 62
	functionalLabelers      = 46
	activeLabelers          = 36
	officialHistoricalScale = 6.5 // official labels before the window ≈ 1.8M
	communityAprilShare     = 0.887
)

// Label target mix (Table 4).
const (
	sharePostTargets    = 0.9963
	shareAccountTargets = 0.0023
	shareMediaTargets   = 0.0014
)

// genLabelers generates the standalone labeler enumeration — the
// corpus-level population a partitioned generation shares across all
// partitions (labels are attributed by labeler index, so every
// partition must agree on the enumeration).
func genLabelers(rng *rand.Rand) []core.Labeler {
	tmp := &core.Dataset{}
	genLabelerPopulation(tmp, rng)
	return tmp.Labelers
}

// genModeration builds the labeler population (unless one was injected
// — a partitioned generation shares the corpus enumeration) and the
// label stream. The labeler population, the per-labeler spec streams,
// and the rescind pass draw serially from the stage RNG; the
// historic-label loop — the stage's dominant cost after scaling — fans
// out over histShards fixed sub-streams the same way genPosts does, so
// the output is byte-identical at any parallelism level. part tags
// this partition's synthetic historic subjects so independent
// partitions never collide on URIs.
func genModeration(ds *core.Dataset, seed int64, sequential bool, part int) {
	rng := stageRNG(seed, stageModeration)
	if len(ds.Labelers) == 0 {
		genLabelerPopulation(ds, rng)
	}
	genLabels(ds, rng, seed, sequential, part)
}

// genLabelerPopulation appends the §6.1 labeler population to ds.
func genLabelerPopulation(ds *core.Dataset, rng *rand.Rand) {
	// Active labelers from the spec table.
	specCount := len(labelerSpecs)
	for i, spec := range labelerSpecs {
		announced := LabelersOpen.AddDate(0, 0, rng.Intn(30))
		if spec.Official {
			announced = OfficialLbl
		}
		ds.Labelers = append(ds.Labelers, core.Labeler{
			DID:        fmt.Sprintf("did:plc:labeler%017d", i),
			Name:       spec.Name,
			Official:   spec.Official,
			Values:     spec.Values,
			Announced:  announced,
			Functional: true,
			Active:     spec.Count > 0,
			Hosting:    spec.Hosting,
			Automated:  spec.Automated,
			Likes:      spec.Likes,
			Operator:   spec.Operator,
			About:      spec.About,
		})
	}
	// Active-but-tiny labelers beyond the spec table (1–2 labels).
	for i := specCount; i < activeLabelers; i++ {
		ds.Labelers = append(ds.Labelers, core.Labeler{
			DID:        fmt.Sprintf("did:plc:labeler%017d", i),
			Name:       fmt.Sprintf("Tiny Labeler %d", i),
			Values:     []string{fmt.Sprintf("test-%d", i)},
			Announced:  LabelersOpen.AddDate(0, 0, rng.Intn(40)),
			Functional: true, Active: true,
			Hosting: "cloud", Automated: false,
		})
	}
	// Functional but silent.
	for i := activeLabelers; i < functionalLabelers; i++ {
		ds.Labelers = append(ds.Labelers, core.Labeler{
			DID:        fmt.Sprintf("did:plc:labeler%017d", i),
			Name:       fmt.Sprintf("Silent Labeler %d", i),
			Values:     []string{"unused"},
			Announced:  LabelersOpen.AddDate(0, 0, rng.Intn(40)),
			Functional: true,
			Hosting:    "cloud",
		})
	}
	// Announced, never functional (endpoint unreachable).
	for i := functionalLabelers; i < totalAnnouncedLabelers; i++ {
		ds.Labelers = append(ds.Labelers, core.Labeler{
			DID:       fmt.Sprintf("did:plc:labeler%017d", i),
			Name:      fmt.Sprintf("Ghost Labeler %d", i),
			Values:    []string{"unknown"},
			Announced: LabelersOpen.AddDate(0, 0, rng.Intn(45)),
			Hosting:   "unknown",
		})
	}
}

// genLabels builds the label stream against ds.Labelers.
func genLabels(ds *core.Dataset, rng *rand.Rand, seed int64, sequential bool, part int) {
	// Label stream. Every labeler's volume shrinks by the same
	// divisor (capped at 200 so the Table 6 tail keeps ≥3 samples),
	// which preserves the rank ordering of Tables 3 and 6 at any
	// scale.
	divisor := ds.Scale
	if divisor > 200 {
		divisor = 200
	}
	for li, spec := range labelerSpecs {
		count := spec.Count / divisor
		if count < 3 {
			count = 3
		}
		lblDID := ds.Labelers[li].DID
		for i := 0; i < count; i++ {
			l := core.Label{Src: lblDID}
			// Value: first value dominates (Table 6 top values).
			vi := 0
			if len(spec.Values) > 1 && rng.Float64() < 0.25 {
				vi = 1 + rng.Intn(len(spec.Values)-1)
			}
			l.Val = spec.Values[vi]
			// Target mix (Table 4).
			switch u := rng.Float64(); {
			case u < sharePostTargets:
				l.Kind = core.SubjectPost
			case u < sharePostTargets+shareAccountTargets:
				l.Kind = core.SubjectAccount
			case u < sharePostTargets+shareAccountTargets+shareMediaTargets:
				l.Kind = core.SubjectMedia
			default:
				l.Kind = core.SubjectOther
			}
			if l.Kind == core.SubjectPost && len(ds.Posts) > 0 {
				p := &ds.Posts[rng.Intn(len(ds.Posts))]
				l.URI = p.URI
				l.SubjectCreated = p.CreatedAt
				l.FreshSubject = true
			} else {
				// Field reads, not a struct copy: this stage runs in
				// parallel with genFeedGens, which writes the (disjoint)
				// Following/Followers fields of the same users.
				target := &ds.Users[rng.Intn(len(ds.Users))]
				l.URI = target.DID
				l.SubjectCreated = target.CreatedAt
			}
			// Reaction time from the labeler's regime.
			rt := lognormal(rng, spec.MedianRT, spec.SigmaRT)
			l.Applied = l.SubjectCreated.Add(floatSecs(rt))
			if l.Applied.After(WindowEnd) {
				l.Applied = WindowEnd.Add(-time.Minute)
			}
			if !spec.Official && l.Applied.Before(LabelersOpen) {
				l.Applied = LabelersOpen.Add(floatSecs(rt))
			}
			ds.Labels = append(ds.Labels, l)
		}
	}
	// The official labeler's historical labels (Apr 2023 → window):
	// spread proportional to activity; these dominate the all-time
	// total but not the April community share (Figure 4). The loop
	// fills histShards disjoint index ranges, each from its own
	// deterministic RNG stream.
	histCount := scaled(1_800_000, ds.Scale, 900)
	official := ds.Labelers[0]
	days := int(WindowStart.Sub(OfficialLbl).Hours() / 24)
	// One entry past the last day: pow can round f up to exactly 1.
	labelDays := dayTable(OfficialLbl, days+1)
	hist := make([]core.Label, histCount)
	histPrefix := fmt.Sprintf("at://did:plc:historic%03d/app.bsky.feed.post/3h", part)
	fill := func(shard int) {
		srng := stageRNG(seed, stageHistShard0+uint64(shard))
		lo, hi := histCount*shard/histShards, histCount*(shard+1)/histShards
		var buf []byte
		for i := lo; i < hi; i++ {
			// Weight towards recent months (activity grew).
			f := pow(srng.Float64(), 0.45)
			day := labelDays[int(f*float64(days))]
			val := official.Values[srng.Intn(3)] // porn / sexual / nudity
			created := day.Add(-secsDuration(int64(lognormal(srng, 600, 1.5))))
			hist[i] = core.Label{
				Src: official.DID, Val: val, Kind: core.SubjectPost,
				URI:            padded(&buf, histPrefix, int64(i), 11, ""),
				SubjectCreated: created,
				Applied:        day,
			}
		}
	}
	if sequential {
		for shard := 0; shard < histShards; shard++ {
			fill(shard)
		}
	} else {
		var wg sync.WaitGroup
		for shard := 0; shard < histShards; shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				fill(shard)
			}(shard)
		}
		wg.Wait()
	}
	ds.Labels = append(ds.Labels, hist...)
	// Rescinded labels (negations) — 23,394 of 3.4M.
	negCount := scaled(TargetRescinded, ds.Scale, 12)
	for i := 0; i < negCount && i < len(ds.Labels); i++ {
		orig := ds.Labels[rng.Intn(len(ds.Labels))]
		ds.Labels = append(ds.Labels, core.Label{
			Src: orig.Src, URI: orig.URI, Val: orig.Val, Neg: true, Kind: orig.Kind,
			SubjectCreated: orig.SubjectCreated,
			Applied:        orig.Applied.Add(secsDuration(int64(lognormal(rng, 3_600, 1.0)))),
		})
	}
}

func secsDuration(s int64) time.Duration { return time.Duration(s) * time.Second }

// floatSecs converts fractional seconds without truncating sub-second
// reaction times (the fastest labelers react in ~0.35 s).
func floatSecs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
