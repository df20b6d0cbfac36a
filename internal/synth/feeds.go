package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"blueskies/internal/core"
)

// FGaaS platform populations (Table 5 bottom rows) and their market
// shares of posts and likes (§7.2 / Figure 12).
var platformSpecs = []struct {
	Name      string
	Feeds     int
	PostShare float64
	LikeShare float64
}{
	{"Skyfeed", 35_415, 0.303, 0.612},
	{"Bluefeed", 2_302, 0.105, 0.130},
	{"Blueskyfeeds", 1_797, 0.080, 0.110},
	{"goodfeeds", 929, 0.356, 0.012},
	{"Blueskyfeedcreator", 158, 0.016, 0.026},
	{"self-hosted", 2_462, 0.140, 0.110},
}

// Window feed-post corpus (§3: 21,520,083 posts from 40,398 FGs) and
// cumulative like mass on generator records (Figure 7).
const (
	targetFeedPosts = 21_520_083
	targetFGLikes   = 300_000
)

// Feed description languages (§7.1).
var fgLangShares = []struct {
	Lang  string
	Share float64
}{
	{"en", 0.45}, {"ja", 0.36}, {"de", 0.041}, {"ko", 0.020}, {"fr", 0.019},
	{"es", 0.04}, {"pt", 0.02}, {"", 0.05},
}

// Description vocabulary per language (drives the Figure 8 word
// cloud; the art community dominates).
var fgVocab = map[string][]string{
	"en": {"art", "artists", "feed", "posts", "all", "new", "community", "daily", "best", "nsfw", "sfw", "furry", "photography", "science", "news", "follow", "only", "top", "tumblr", "deviantart", "pixiv"},
	"ja": {"アート", "フィード", "イラスト", "毎日", "ラーメン", "新着", "コミュニティ", "創作", "写真", "趣味"},
	"de": {"kunst", "feed", "beiträge", "täglich", "gemeinschaft", "neu", "fotografie"},
	"ko": {"예술", "피드", "포스트", "커뮤니티", "매일"},
	"fr": {"art", "fil", "quotidien", "communauté", "photographie"},
	"es": {"arte", "feed", "publicaciones", "comunidad", "diario"},
	"pt": {"arte", "feed", "postagens", "comunidade", "diário"},
	"":   {"feed", "posts", "misc"},
}

// Creator portfolio mix (§7.1): 62.1 % run one feed, ~37 % up to ten,
// 0.02 % more than a hundred; the largest account (a FGaaS platform)
// runs 1,799.
const maxFeedsOneAccount = 1_799

// genFeedGens builds the feed generator ecosystem. anchorScale, when
// non-zero, places the §7.1 named feeds at that (corpus) scale; a
// partitioned generation anchors only partition 0 so the paper's
// named feeds stay unique — and keep their corpus-scale magnitudes —
// in the merged corpus.
func genFeedGens(ds *core.Dataset, rng *rand.Rand, anchorScale int) {
	type platFeed struct {
		platform string
		idx      int
	}
	var slots []platFeed
	for _, ps := range platformSpecs {
		n := ps.Feeds / ds.Scale
		if n < 2 {
			n = 2
		}
		for i := 0; i < n; i++ {
			slots = append(slots, platFeed{platform: ps.Name, idx: i})
		}
	}
	totalFG := len(slots)

	// Creators: biased towards high-follower, low-following users
	// (Figure 11). Sort user indices by followers and sample from the
	// upper tail.
	order := make([]int, len(ds.Users))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return ds.Users[order[a]].Followers > ds.Users[order[b]].Followers
	})
	pickCreator := func() int {
		// Beta-like bias to the top of the follower ranking.
		f := pow(rng.Float64(), 3.0)
		return order[int(f*float64(len(order)-1))]
	}

	// Assign portfolio sizes first, then deal slots to creators.
	var creators []int
	var portfolio []int
	remaining := totalFG
	// The one FGaaS-platform account with a huge portfolio.
	big := maxFeedsOneAccount / ds.Scale
	if big < 12 {
		big = 12
	}
	if big > remaining/3 {
		big = remaining / 3
	}
	creators = append(creators, pickCreator())
	portfolio = append(portfolio, big)
	remaining -= big
	for remaining > 0 {
		size := 1
		switch u := rng.Float64(); {
		case u < 0.621:
			size = 1
		case u < 0.9998:
			size = 2 + rng.Intn(9)
		default:
			size = 101 + rng.Intn(80)
		}
		if size > remaining {
			size = remaining
		}
		creators = append(creators, pickCreator())
		portfolio = append(portfolio, size)
		remaining -= size
	}
	// FG creators have low out-degree (§7.1).
	following := newPowerlaw(2.6, 300)
	for _, ci := range creators {
		ds.Users[ci].Following = following.sample(rng)
	}

	// Per-platform post/like budgets.
	feedPosts := scaled(targetFeedPosts, ds.Scale, 2_000)
	fgLikes := scaled(targetFGLikes, ds.Scale, 300)
	postBudget := map[string]int{}
	likeBudget := map[string]int{}
	for _, ps := range platformSpecs {
		postBudget[ps.Name] = int(float64(feedPosts) * ps.PostShare)
		likeBudget[ps.Name] = int(float64(fgLikes) * ps.LikeShare)
	}
	platformFeedCount := map[string]int{}
	for _, s := range slots {
		platformFeedCount[s.platform]++
	}

	// Deal slots to creators in order.
	slotCursor := 0
	fgs := make([]core.FeedGen, 0, totalFG)
	for ci, creator := range creators {
		for k := 0; k < portfolio[ci] && slotCursor < len(slots); k++ {
			slot := slots[slotCursor]
			slotCursor++
			fg := buildFeedGen(ds, rng, creator, slot.platform, len(fgs),
				postBudget, likeBudget, platformFeedCount)
			fgs = append(fgs, fg)
		}
	}
	// Large portfolios (FGaaS platform accounts, §7.1) get little
	// engagement per feed — this is what keeps the paper's
	// r(#feeds, followers) near zero despite r(Σ likes, followers)
	// being strong.
	feedsPerCreator := map[int]int{}
	for _, fg := range fgs {
		feedsPerCreator[fg.CreatorIdx]++
	}
	for i := range fgs {
		if n := feedsPerCreator[fgs[i].CreatorIdx]; n > 5 {
			fgs[i].Likes /= n
		}
	}

	// Named feeds from §7.1 anchoring the extremes of Figure 10
	// (applied after the portfolio dampening so their calibrated
	// like counts survive).
	if anchorScale > 0 {
		anchorNamedFeeds(anchorScale, fgs)
	}
	// Small worlds can round the 0.53 % heavily-labeled population to
	// zero; guarantee the Figure 9 population exists.
	heavy := 0
	for i := range fgs {
		if fgs[i].LabeledShare >= 0.10 {
			heavy++
		}
	}
	for i := len(fgs) - 1; heavy < 3 && i >= 0; i-- {
		if fgs[i].Personalized || fgs[i].LabeledShare >= 0.10 {
			continue
		}
		fgs[i].LabeledShare = 0.10 + 0.6*rng.Float64()
		fgs[i].TopLabel = pickWeighted(rng, []string{"porn", "sexual", "spam"},
			[]float64{0.5, 0.3, 0.2})
		heavy++
	}
	ds.FeedGens = fgs

	// Engineer the §7.1 correlation: creator followers correlate with
	// the LIKES their feeds gathered (r≈0.533), not with feed count
	// (r≈0.005). The coupling factor adapts to the world size so the
	// like signal is comparable to the follower base's spread at any
	// scale.
	likesByCreator := map[int]int{}
	maxLikes, maxBase := 1, 1
	for _, fg := range fgs {
		likesByCreator[fg.CreatorIdx] += fg.Likes
	}
	// Iterate creators in sorted order: consuming rng draws in map
	// iteration order would make follower boosts differ run to run.
	creatorIdxs := make([]int, 0, len(likesByCreator))
	for ci := range likesByCreator {
		creatorIdxs = append(creatorIdxs, ci)
	}
	sort.Ints(creatorIdxs)
	for _, ci := range creatorIdxs {
		if l := likesByCreator[ci]; l > maxLikes {
			maxLikes = l
		}
		if f := ds.Users[ci].Followers; f > maxBase {
			maxBase = f
		}
	}
	factor := float64(maxBase) / float64(maxLikes)
	for _, ci := range creatorIdxs {
		boost := int(float64(likesByCreator[ci]) * factor * (0.7 + 0.6*rng.Float64()))
		ds.Users[ci].Followers += boost
	}
}

func buildFeedGen(ds *core.Dataset, rng *rand.Rand, creator int, platform string, seq int,
	postBudget, likeBudget, feedCount map[string]int) core.FeedGen {
	lang := pickFGLang(rng)
	fg := core.FeedGen{
		URI:        fmt.Sprintf("at://%s/app.bsky.feed.generator/feed%06d", ds.Users[creator].DID, seq),
		CreatorIdx: creator,
		Platform:   platform,
		Lang:       lang,
		Reachable:  rng.Float64() < float64(TargetReachableFGs)/float64(TargetFeedGens),
	}
	fg.DisplayName = fmt.Sprintf("feed-%06d", seq)
	fg.Description = makeDescription(rng, lang)

	// Creation date: from May 2023, accelerating at the public
	// opening (Figure 7).
	span := int(WindowEnd.Sub(FeedGensLaunch).Hours() / 24)
	f := pow(rng.Float64(), 0.55) // skew towards recent
	fg.CreatedAt = FeedGensLaunch.AddDate(0, 0, int(f*float64(span)))

	// Post volume: 9.4 % never curated; 21.8 % inactive in the last
	// month; the rest follow a platform-budgeted power law.
	switch u := rng.Float64(); {
	case u < 0.094:
		fg.Posts = 0
	default:
		mean := 1.0
		if n := feedCount[platform]; n > 0 {
			mean = float64(postBudget[platform]) / float64(n)
		}
		fg.Posts = int(lognormal(rng, clampF(mean*0.4, 1, 1e9), 1.6))
		if u < 0.094+0.218 {
			// Inactive recently: posts exist but none in the last month.
			fg.LastPost = WindowStart.AddDate(0, 0, -rng.Intn(120)-30)
		} else {
			fg.LastPost = WindowEnd.AddDate(0, 0, -rng.Intn(7))
		}
	}
	// Likes: platform-budgeted power law.
	meanLikes := 1.0
	if n := feedCount[platform]; n > 0 {
		meanLikes = float64(likeBudget[platform]) / float64(n)
	}
	fg.Likes = int(lognormal(rng, clampF(meanLikes*0.3, 0.05, 1e9), 1.9))

	// Label joins (Figure 9): 12.6 % have some labeled content,
	// 0.53 % cross the 10 % threshold, dominated by explicit values.
	switch u := rng.Float64(); {
	case u < 0.0053:
		fg.LabeledShare = 0.10 + 0.85*rng.Float64()
		fg.TopLabel = pickWeighted(rng, []string{"porn", "sexual", "nudity", "spam", "graphic-media", "no-alt-text"},
			[]float64{0.45, 0.25, 0.10, 0.12, 0.04, 0.04})
	case u < 0.126:
		fg.LabeledShare = 0.005 + 0.09*rng.Float64()
		fg.TopLabel = pickWeighted(rng, []string{"no-alt-text", "tenor-gif", "ai-imagery", "sexual", "porn"},
			[]float64{0.4, 0.2, 0.2, 0.1, 0.1})
	}
	return fg
}

// anchorNamedFeeds overwrites a few slots with the feeds the paper
// names: personalized recommenders with huge like counts and zero
// crawlable posts, and automatic aggregators with huge post counts.
// scale is the corpus scale — the anchors are corpus-unique.
func anchorNamedFeeds(scale int, fgs []core.FeedGen) {
	if len(fgs) < 8 {
		return
	}
	type anchor struct {
		name         string
		personalized bool
		posts        int
		likes        int
		lang         string
		desc         string
	}
	anchors := []anchor{
		{"the-algorithm", true, 0, scaled(16_000, scale, 40), "en", "personalized feed based on your likes"},
		{"whats-hot", true, 0, scaled(14_000, scale, 35), "en", "trending content from your personal network"},
		{"4dff350a5a3e", false, scaled(420_000, scale, 900), scaled(60, scale, 3), "ja", "ラーメン 関連の投稿を自動収集"},
		{"hebrew-feed", false, scaled(380_000, scale, 800), scaled(90, scale, 4), "en", "automatically reposts all content in Hebrew"},
		{"blacksky", false, scaled(45_000, scale, 150), scaled(9_000, scale, 25), "en", "community curated posts from Black Bluesky"},
		{"furry-new", false, scaled(52_000, scale, 160), scaled(8_000, scale, 22), "en", "new furry art posts community feed"},
	}
	for i, a := range anchors {
		fg := &fgs[i]
		fg.DisplayName = a.name
		fg.Description = a.desc
		fg.Personalized = a.personalized
		fg.Posts = a.posts
		fg.Likes = a.likes
		fg.Lang = a.lang
		fg.Platform = "self-hosted"
		fg.Reachable = true
		if a.posts > 0 {
			fg.LastPost = WindowEnd.AddDate(0, 0, -1)
		}
	}
}

func pickFGLang(rng *rand.Rand) string {
	u := rng.Float64()
	acc := 0.0
	for _, ls := range fgLangShares {
		acc += ls.Share
		if u < acc {
			return ls.Lang
		}
	}
	return "en"
}

func makeDescription(rng *rand.Rand, lang string) string {
	vocab, ok := fgVocab[lang]
	if !ok {
		vocab = fgVocab["en"]
	}
	n := 3 + rng.Intn(5)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		// Zipf-weighted word choice so the word cloud has structure.
		idx := int(pow(rng.Float64(), 2.0) * float64(len(vocab)))
		if idx >= len(vocab) {
			idx = len(vocab) - 1
		}
		out += vocab[idx]
	}
	return out
}

func pickWeighted(rng *rand.Rand, items []string, weights []float64) string {
	u := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return items[i]
		}
	}
	return items[len(items)-1]
}
