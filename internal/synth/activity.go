package synth

import (
	"math/rand"
	"sync"
	"time"

	"blueskies/internal/core"
)

// Languages and their base shares among users who posted at least
// once (§4: ≈800K English, ≈700K Japanese of ≈2M tagged users;
// Portuguese and German next).
var langShares = []struct {
	Lang  string
	Share float64
}{
	{"en", 0.40},
	{"ja", 0.35},
	{"de", 0.05},
	{"pt", 0.045},
	{"ko", 0.03},
	{"fr", 0.025},
	{"es", 0.025},
	{"nl", 0.01},
	{"", 0.065}, // untagged / other
}

// postedShare is the fraction of users who ever posted (≈2M of 5.5M).
const postedShare = 0.36

// dauPoints is the daily-active-users curve (unscaled), matching the
// growth narrative of §4: launch Nov 2022, hundreds of thousands by
// July 2023, public opening Feb 2024, ≈500K DAU with a −60K decline
// March→May 2024.
var dauPoints = []struct {
	Date time.Time
	DAU  float64
	Log  bool // log-interpolate towards this point
}{
	{date(2022, 11, 17), 300, false},
	{date(2022, 12, 15), 1_500, true},
	{date(2023, 3, 1), 60_000, true},
	{date(2023, 7, 1), 250_000, true},
	{date(2024, 1, 1), 330_000, false},
	{date(2024, 2, 5), 350_000, false},
	{date(2024, 2, 10), 560_000, false}, // public-opening surge
	{date(2024, 3, 1), 560_000, false},
	{date(2024, 5, 1), 500_000, false}, // −60K decline
}

// DAU evaluates the (unscaled) daily-active-user curve.
func DAU(t time.Time) float64 {
	if t.Before(dauPoints[0].Date) {
		return 0
	}
	for i := 1; i < len(dauPoints); i++ {
		p, q := dauPoints[i-1], dauPoints[i]
		if t.Before(q.Date) || t.Equal(q.Date) {
			f := float64(t.Sub(p.Date)) / float64(q.Date.Sub(p.Date))
			if q.Log {
				return exp(lerp(logf(p.DAU), logf(q.DAU), f))
			}
			return lerp(p.DAU, q.DAU, f)
		}
	}
	return dauPoints[len(dauPoints)-1].DAU
}

// Per-active-user daily operation rates, derived from §4's April-2024
// snapshot (≈3M likes, 800K posts, 300K reposts at ≈500K DAU) and the
// dataset totals' follow/block proportions.
const (
	rateLikes   = 6.0
	ratePosts   = 1.6
	rateReposts = 0.6
	rateFollows = 1.3
	rateBlocks  = 0.088
)

// langActivityShare returns language l's share of active users on day
// t, encoding the Figure 2 dynamics: the Japanese bump at the public
// opening, the April-2024 Portuguese surge, German indifference.
func langActivityShare(lang string, t time.Time) float64 {
	switch lang {
	case "ja":
		if t.Before(PublicDate) {
			return 0.28
		}
		return 0.36
	case "pt":
		switch {
		case t.Before(PTSurge):
			return 0.006
		case t.Before(PTSurge.AddDate(0, 0, 5)):
			f := float64(t.Sub(PTSurge)) / float64(PTSurge.AddDate(0, 0, 5).Sub(PTSurge))
			return lerp(0.006, 0.055, f)
		default:
			return 0.055
		}
	case "de":
		return 0.025 // unaffected by the public opening
	case "ko":
		return 0.02
	case "fr":
		return 0.018
	case "en":
		if t.Before(PublicDate) {
			return 0.45
		}
		return 0.40
	}
	return 0
}

// userShards is the fixed fan-out of user generation — a constant,
// not GOMAXPROCS, so the population is identical at any parallelism
// level (same rule as postShards/histShards).
const userShards = 8

// genUsers populates the user population: signup dates proportional to
// the growth curve, language assignment, and follow-graph degrees.
// Users are generated in userShards disjoint index ranges, each from
// its own deterministic RNG stream (`stageUserShard0 + k`), the same
// fan-out pattern as genPosts. didBase offsets the DID numbering so
// independently generated partitions (GeneratePartitioned) never
// collide on identifiers; headlineScale, when non-zero, places the
// unique most-followed / most-blocked accounts at that (corpus)
// scale — a partitioned generation anchors only partition 0, the same
// uniqueness rule as genFeedGens' named feeds, and anchors are
// corpus-unique so they must not shrink with the per-partition
// Scale·n division.
func genUsers(ds *core.Dataset, seed int64, sequential bool, didBase int64, headlineScale int) {
	n := scaled(TargetUsers, ds.Scale, 500)
	users := make([]core.User, n)

	// Signup-date sampling: weight each day by DAU (growing platforms
	// acquire proportionally to activity). The cumulative weights are
	// RNG-free, so every shard shares them.
	days := int(WindowEnd.Sub(LaunchDate).Hours() / 24)
	signupDays := dayTable(LaunchDate, days)
	weights := make([]float64, days)
	var totalW float64
	for i, day := range signupDays {
		weights[i] = DAU(day)
		totalW += weights[i]
	}
	cum := make([]float64, days)
	acc := 0.0
	for i, w := range weights {
		acc += w / totalW
		cum[i] = acc
	}
	sampleDay := func(rng *rand.Rand) time.Time {
		u := rng.Float64()
		lo, hi := 0, days-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return signupDays[lo]
	}

	// Degrees: bounded power laws; total follows scale-consistent.
	followers := newPowerlaw(2.05, scaled(775_000, ds.Scale, 200)) // the official account's 775K
	following := newPowerlaw(1.9, 8_000)
	fill := func(shard int) {
		rng := stageRNG(seed, stageUserShard0+uint64(shard))
		lo, hi := n*shard/userShards, n*(shard+1)/userShards
		var buf []byte
		for i := lo; i < hi; i++ {
			u := core.User{
				DID:       padded(&buf, "did:plc:", didBase+int64(i), 24, ""),
				CreatedAt: sampleDay(rng),
			}
			if rng.Float64() < postedShare {
				u.Lang = pickLang(rng)
			}
			u.Followers = followers.sample(rng) - 1
			u.Following = following.sample(rng) - 1
			users[i] = u
		}
	}
	if sequential {
		for shard := 0; shard < userShards; shard++ {
			fill(shard)
		}
	} else {
		var wg sync.WaitGroup
		for shard := 0; shard < userShards; shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				fill(shard)
			}(shard)
		}
		wg.Wait()
	}
	// The most-followed accounts (official, newspapers) and the
	// most-blocked ones (impersonators, propagandists) — deterministic
	// overrides, no RNG draws. They exist once per corpus, not once
	// per partition, and keep their corpus-scale magnitudes.
	if headlineScale > 0 {
		users[0].Followers = scaled(775_000, headlineScale, 200)
		if n > 2 {
			users[1].Followers = scaled(220_000, headlineScale, 120)
			users[2].Followers = scaled(205_000, headlineScale, 110)
			users[1].Blocks = scaled(15_000, headlineScale, 20)
			users[2].Blocks = scaled(14_500, headlineScale, 18)
		}
	}
	ds.Users = users
}

func pickLang(rng *rand.Rand) string {
	u := rng.Float64()
	acc := 0.0
	for _, ls := range langShares {
		acc += ls.Share
		if u < acc {
			return ls.Lang
		}
	}
	return ""
}

// genActivity builds the daily activity series (Figures 1 and 2).
func genActivity(ds *core.Dataset, rng *rand.Rand) {
	days := int(WindowEnd.Sub(LaunchDate).Hours() / 24)
	ds.Daily = make([]core.DayActivity, 0, days)
	for i := 0; i < days; i++ {
		day := LaunchDate.AddDate(0, 0, i)
		dau := DAU(day) / float64(ds.Scale)
		if dau < 1 {
			dau = 1
		}
		noise := func() float64 { return 0.92 + 0.16*rng.Float64() }
		act := core.DayActivity{
			Date:         day,
			ActiveUsers:  int(dau * noise()),
			Posts:        int(dau * ratePosts * noise()),
			Likes:        int(dau * rateLikes * noise()),
			Reposts:      int(dau * rateReposts * noise()),
			Follows:      int(dau * rateFollows * noise()),
			Blocks:       int(dau * rateBlocks * noise()),
			ActiveByLang: map[string]int{},
		}
		for _, ls := range langShares {
			if ls.Lang == "" {
				continue
			}
			share := langActivityShare(ls.Lang, day)
			act.ActiveByLang[ls.Lang] = int(dau * share * noise())
		}
		ds.Daily = append(ds.Daily, act)
	}
	// Firehose event counts (Table 1) over the collection window.
	total := int64(scaled(TargetFirehoseEvents, ds.Scale, 10_000))
	ds.Firehose = core.EventCounts{
		Commits:   int64(float64(total) * ShareCommits),
		Identity:  int64(float64(total) * ShareIdentity),
		Handle:    int64(float64(total) * ShareHandle),
		Tombstone: int64(float64(total) * ShareTombstone),
	}
	ds.NonBskyEvents = int64(scaled(TargetNonBskyEvents, ds.Scale, 3))
}

// postShards is the fixed fan-out of post generation. It is a
// constant — not GOMAXPROCS — so the shard RNG streams, and with them
// the generated corpus, are identical at any parallelism level.
const postShards = 8

// genPosts creates the measurement-window post corpus used for label
// joins, language verification, and feed contents. The paper observed
// 26,467,002 posts in April 2024 alone; the window here spans the
// firehose collection period. Posts are generated in postShards
// disjoint index ranges, each from its own deterministic RNG stream;
// per-author totals are accumulated in a serial pass afterwards so the
// user records see the same counts regardless of shard scheduling.
func genPosts(ds *core.Dataset, seed int64, sequential bool) {
	const windowPostsTarget = 26_467_002 * 2 // Mar 6 – Apr 30 ≈ 2 April-months
	n := scaled(windowPostsTarget, ds.Scale, 2_000)
	posts := make([]core.Post, n)
	windowDays := dayTable(WindowStart, int(WindowEnd.Sub(WindowStart).Hours()/24))
	// Posting users, weighted by (tagged) language presence. The dense
	// table carries what a post copies from its author, so the shard
	// loops never touch the (much wider) user records.
	type poster struct {
		idx          int
		prefix, lang string // prefix: the author's post-URI stem
	}
	newPoster := func(i int) poster {
		u := &ds.Users[i]
		return poster{i, "at://" + u.DID + "/app.bsky.feed.post/3p", u.Lang}
	}
	var posters []poster
	for i := range ds.Users {
		if ds.Users[i].Lang != "" {
			posters = append(posters, newPoster(i))
		}
	}
	if len(posters) == 0 {
		posters = []poster{newPoster(0)}
	}
	likes := newPowerlaw(2.3, 40_000)
	reposts := newPowerlaw(2.6, 8_000)
	fill := func(shard int) {
		rng := stageRNG(seed, stagePostShard0+uint64(shard))
		lo, hi := n*shard/postShards, n*(shard+1)/postShards
		var buf []byte
		for i := lo; i < hi; i++ {
			author := &posters[rng.Intn(len(posters))]
			day := windowDays[rng.Intn(len(windowDays))]
			created := day.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
			p := core.Post{
				URI:       padded(&buf, author.prefix, int64(i), 11, ""),
				AuthorIdx: author.idx,
				Lang:      author.lang,
				CreatedAt: created,
				Likes:     likes.sample(rng) - 1,
				Reposts:   reposts.sample(rng) - 1,
				HasMedia:  rng.Float64() < 0.32,
			}
			if p.HasMedia {
				p.AltText = rng.Float64() < 0.35 // most media lacks alt text
			}
			posts[i] = p
		}
	}
	if sequential {
		for shard := 0; shard < postShards; shard++ {
			fill(shard)
		}
	} else {
		var wg sync.WaitGroup
		for shard := 0; shard < postShards; shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				fill(shard)
			}(shard)
		}
		wg.Wait()
	}
	for i := range posts {
		ds.Users[posts[i].AuthorIdx].Posts++
	}
	ds.Posts = posts
}
