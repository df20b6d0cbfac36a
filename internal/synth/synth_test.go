package synth

import (
	"fmt"
	"math"
	"testing"
	"time"

	"blueskies/internal/core"
)

func gen(t *testing.T) *core.Dataset {
	t.Helper()
	return Generate(Config{Scale: 1000, Seed: 42})
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Scale: 2000, Seed: 7})
	b := Generate(Config{Scale: 2000, Seed: 7})
	if len(a.Users) != len(b.Users) || len(a.Labels) != len(b.Labels) {
		t.Fatal("same seed produced different dataset sizes")
	}
	if a.Users[3] != b.Users[3] {
		t.Fatalf("user 3 differs: %+v vs %+v", a.Users[3], b.Users[3])
	}
	c := Generate(Config{Scale: 2000, Seed: 8})
	if a.Users[3] == c.Users[3] {
		t.Fatal("different seeds produced identical users")
	}
}

func TestPopulationScale(t *testing.T) {
	ds := gen(t)
	want := TargetUsers / 1000
	if len(ds.Users) != want {
		t.Fatalf("users = %d, want %d", len(ds.Users), want)
	}
}

func TestHandleConcentration(t *testing.T) {
	ds := gen(t)
	bsky := 0
	for _, u := range ds.Users {
		if u.Handle == "" {
			t.Fatalf("user %s has no handle", u.DID)
		}
		if hasSuffix(u.Handle, ".bsky.social") {
			bsky++
		}
	}
	share := float64(bsky) / float64(len(ds.Users))
	// Paper: 98.9 %. Small worlds keep the floor of 80 alt handles.
	if share < 0.95 || share >= 1.0 {
		t.Fatalf("bsky.social share = %.4f", share)
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func TestProofMethodShares(t *testing.T) {
	ds := gen(t)
	var txt, wk int
	for _, u := range ds.Users {
		switch u.Proof {
		case core.ProofDNSTXT:
			txt++
		case core.ProofWellKnown:
			wk++
		}
	}
	if txt == 0 {
		t.Fatal("no DNS TXT proofs")
	}
	share := float64(txt) / float64(txt+wk)
	if share < 0.93 {
		t.Fatalf("TXT share = %.3f, want ≈0.987", share)
	}
}

func TestDIDWebCount(t *testing.T) {
	ds := gen(t)
	web := 0
	for _, u := range ds.Users {
		if u.DIDMethod == "web" {
			web++
		}
	}
	if web != TargetDIDWeb {
		t.Fatalf("did:web count = %d, want %d", web, TargetDIDWeb)
	}
}

func TestDomainSubdomainsSumToAltHandles(t *testing.T) {
	ds := gen(t)
	var alt, subs int
	for _, u := range ds.Users {
		if !hasSuffix(u.Handle, ".bsky.social") {
			alt++
		}
	}
	for _, d := range ds.Domains {
		subs += d.Subdomains
	}
	if alt != subs {
		t.Fatalf("alt handles %d != domain subdomains %d", alt, subs)
	}
}

func TestNamedProvidersPresent(t *testing.T) {
	ds := gen(t)
	byName := map[string]core.Domain{}
	for _, d := range ds.Domains {
		byName[d.Name] = d
	}
	for _, p := range []string{"swifties.social", "tired.io", "vibes.cool", "github.io"} {
		if byName[p].Subdomains == 0 {
			t.Errorf("provider %s missing or empty", p)
		}
	}
	// Ordering preserved: swifties > tired > vibes.
	if !(byName["swifties.social"].Subdomains >= byName["tired.io"].Subdomains &&
		byName["tired.io"].Subdomains >= byName["vibes.cool"].Subdomains) {
		t.Fatalf("provider ordering lost: %+v", byName)
	}
}

func TestRegistrarShares(t *testing.T) {
	ds := Generate(Config{Scale: 200, Seed: 1}) // larger world for stable shares
	counts := map[int]int{}
	withID := 0
	for _, d := range ds.Domains {
		if d.IANAID > 0 {
			counts[d.IANAID]++
			withID++
		}
	}
	if withID == 0 {
		t.Fatal("no IANA IDs assigned")
	}
	nc := float64(counts[1068]) / float64(withID)
	if nc < 0.17 || nc > 0.25 {
		t.Fatalf("NameCheap share = %.3f, want ≈0.209", nc)
	}
	// NameCheap must lead.
	for id, c := range counts {
		if id != 1068 && c > counts[1068] {
			t.Fatalf("registrar %d (%d) beats NameCheap (%d)", id, c, counts[1068])
		}
	}
}

func TestGrowthCurveLandmarks(t *testing.T) {
	if DAU(date(2022, 11, 1)) != 0 {
		t.Fatal("no users before launch")
	}
	dec22 := DAU(date(2022, 12, 10))
	jul23 := DAU(date(2023, 7, 1))
	feb24pre := DAU(date(2024, 2, 4))
	feb24post := DAU(date(2024, 2, 12))
	apr24 := DAU(date(2024, 4, 15))
	may24 := DAU(date(2024, 4, 30))
	if dec22 > 5_000 {
		t.Fatalf("Dec 2022 DAU = %.0f, want hundreds", dec22)
	}
	if jul23 < 150_000 {
		t.Fatalf("Jul 2023 DAU = %.0f, want hundreds of thousands", jul23)
	}
	if feb24post < feb24pre*1.3 {
		t.Fatalf("public opening surge missing: %.0f → %.0f", feb24pre, feb24post)
	}
	if apr24 < 450_000 || apr24 > 600_000 {
		t.Fatalf("Apr 2024 DAU = %.0f, want ≈500K", apr24)
	}
	if may24 >= DAU(date(2024, 3, 1)) {
		t.Fatal("March→May decline missing")
	}
}

func TestLanguageDynamics(t *testing.T) {
	ds := gen(t)
	// Portuguese surge: active count jumps ≈10× mid-April.
	var before, after int
	for _, day := range ds.Daily {
		if day.Date.Equal(date(2024, 4, 5)) {
			before = day.ActiveByLang["pt"]
		}
		if day.Date.Equal(date(2024, 4, 25)) {
			after = day.ActiveByLang["pt"]
		}
	}
	if before == 0 || after < before*5 {
		t.Fatalf("pt surge missing: %d → %d", before, after)
	}
	// Japanese bump at the public opening; German flat.
	var jaPre, jaPost, dePre, dePost int
	for _, day := range ds.Daily {
		if day.Date.Equal(date(2024, 1, 25)) {
			jaPre, dePre = day.ActiveByLang["ja"], day.ActiveByLang["de"]
		}
		if day.Date.Equal(date(2024, 2, 20)) {
			jaPost, dePost = day.ActiveByLang["ja"], day.ActiveByLang["de"]
		}
	}
	if jaPost < jaPre*3/2 {
		t.Fatalf("ja bump missing: %d → %d", jaPre, jaPost)
	}
	if dePost > dePre*3 {
		t.Fatalf("de should be mostly flat: %d → %d", dePre, dePost)
	}
}

func TestFirehoseShares(t *testing.T) {
	ds := gen(t)
	total := ds.Firehose.Total()
	if total == 0 {
		t.Fatal("no firehose events")
	}
	commitShare := float64(ds.Firehose.Commits) / float64(total)
	if commitShare < 0.995 {
		t.Fatalf("commit share = %.4f, want 0.9978", commitShare)
	}
	if ds.Firehose.Identity <= ds.Firehose.Handle || ds.Firehose.Handle <= ds.Firehose.Tombstone {
		t.Fatalf("event-type ordering wrong: %+v", ds.Firehose)
	}
}

func TestLabelerPopulation(t *testing.T) {
	ds := gen(t)
	if len(ds.Labelers) != totalAnnouncedLabelers {
		t.Fatalf("labelers = %d, want %d", len(ds.Labelers), totalAnnouncedLabelers)
	}
	var functional, active, official int
	for _, l := range ds.Labelers {
		if l.Functional {
			functional++
		}
		if l.Active {
			active++
		}
		if l.Official {
			official++
		}
	}
	if functional != functionalLabelers || active != activeLabelers || official != 1 {
		t.Fatalf("functional=%d active=%d official=%d", functional, active, official)
	}
}

func TestLabelTargetMix(t *testing.T) {
	ds := gen(t)
	kinds := map[core.SubjectKind]int{}
	for _, l := range ds.Labels {
		kinds[l.Kind]++
	}
	total := len(ds.Labels)
	if total == 0 {
		t.Fatal("no labels")
	}
	postShare := float64(kinds[core.SubjectPost]) / float64(total)
	if postShare < 0.98 {
		t.Fatalf("post-target share = %.4f, want ≈0.9963", postShare)
	}
	if kinds[core.SubjectAccount] == 0 {
		t.Fatal("no account-level labels")
	}
}

func TestReactionTimeRegimes(t *testing.T) {
	ds := gen(t)
	// The alt-text labeler (automated) must have sub-10s median; the
	// manual "Community Safety" one must take hours.
	rts := map[string][]float64{}
	byDID := map[string]string{}
	for _, l := range ds.Labelers {
		byDID[l.DID] = l.Name
	}
	for _, l := range ds.Labels {
		if l.Neg || !l.FreshSubject {
			continue
		}
		rts[byDID[l.Src]] = append(rts[byDID[l.Src]], l.ReactionTime().Seconds())
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		cp := append([]float64(nil), xs...)
		sortFloats(cp)
		return cp[len(cp)/2]
	}
	alt := med(rts["Bad Accessibility / Alt Text Labeler"])
	if math.IsNaN(alt) || alt > 10 {
		t.Fatalf("alt-text labeler median RT = %.2fs, want <10s", alt)
	}
	manual := med(rts["Community Safety"])
	if math.IsNaN(manual) || manual < 600 {
		t.Fatalf("manual labeler median RT = %.2fs, want ≫10m", manual)
	}
}

func TestRescindedLabelsPresent(t *testing.T) {
	ds := gen(t)
	negs := 0
	for _, l := range ds.Labels {
		if l.Neg {
			negs++
		}
	}
	if negs == 0 {
		t.Fatal("no rescinded labels")
	}
	if float64(negs)/float64(len(ds.Labels)) > 0.05 {
		t.Fatalf("rescinded share too high: %d/%d", negs, len(ds.Labels))
	}
}

func TestFeedGenEcosystem(t *testing.T) {
	ds := gen(t)
	if len(ds.FeedGens) < 30 {
		t.Fatalf("feedgens = %d", len(ds.FeedGens))
	}
	platforms := map[string]int{}
	empty := 0
	for _, fg := range ds.FeedGens {
		platforms[fg.Platform]++
		if fg.Posts == 0 {
			empty++
		}
	}
	if platforms["Skyfeed"] == 0 || platforms["goodfeeds"] == 0 {
		t.Fatalf("platforms = %v", platforms)
	}
	// Skyfeed hosts the large majority of feeds.
	if platforms["Skyfeed"]*2 < len(ds.FeedGens) {
		t.Fatalf("Skyfeed share too low: %d of %d", platforms["Skyfeed"], len(ds.FeedGens))
	}
	// Some feeds never curated anything (9.4 % in the paper; anchored
	// personalized feeds add two).
	if empty == 0 {
		t.Fatal("no empty feeds")
	}
}

func TestNamedFeedAnchors(t *testing.T) {
	ds := gen(t)
	byName := map[string]core.FeedGen{}
	for _, fg := range ds.FeedGens {
		byName[fg.DisplayName] = fg
	}
	alg, ok := byName["the-algorithm"]
	if !ok || !alg.Personalized || alg.Posts != 0 {
		t.Fatalf("the-algorithm = %+v", alg)
	}
	ramen, ok := byName["4dff350a5a3e"]
	if !ok || ramen.Posts < 100 || ramen.Lang != "ja" {
		t.Fatalf("ramen feed = %+v", ramen)
	}
	if alg.Likes < ramen.Likes {
		t.Fatal("personalized feeds must out-like aggregators")
	}
}

func TestFeedLikesFollowerCorrelation(t *testing.T) {
	ds := Generate(Config{Scale: 400, Seed: 3})
	// Pearson r between per-creator Σ feed likes and followers must be
	// clearly positive; between #feeds and followers near zero.
	likes := map[int]float64{}
	count := map[int]float64{}
	for _, fg := range ds.FeedGens {
		likes[fg.CreatorIdx] += float64(fg.Likes)
		count[fg.CreatorIdx]++
	}
	var xs, ys, cs []float64
	for ci, l := range likes {
		xs = append(xs, l)
		ys = append(ys, float64(ds.Users[ci].Followers))
		cs = append(cs, count[ci])
	}
	rLikes := pearson(xs, ys)
	rCount := pearson(cs, ys)
	if rLikes < 0.25 {
		t.Fatalf("r(likes, followers) = %.3f, want strongly positive", rLikes)
	}
	if math.Abs(rCount) > math.Abs(rLikes) {
		t.Fatalf("r(count)=%.3f should be weaker than r(likes)=%.3f", rCount, rLikes)
	}
}

func TestHandleUpdateShares(t *testing.T) {
	ds := gen(t)
	if len(ds.HandleUpdates) == 0 {
		t.Fatal("no handle updates")
	}
	toBsky := 0
	for _, hu := range ds.HandleUpdates {
		if hasSuffix(hu.NewHandle, ".bsky.social") {
			toBsky++
		}
		if hu.Time.Before(ds.WindowStart) || hu.Time.After(ds.WindowEnd) {
			t.Fatalf("update outside window: %v", hu.Time)
		}
	}
	share := float64(toBsky) / float64(len(ds.HandleUpdates))
	if share < 0.65 || share > 0.85 {
		t.Fatalf("bsky-bound update share = %.3f, want ≈0.757", share)
	}
}

func TestPostCorpus(t *testing.T) {
	ds := gen(t)
	if len(ds.Posts) == 0 {
		t.Fatal("no posts")
	}
	langs := map[string]int{}
	for _, p := range ds.Posts {
		if p.CreatedAt.Before(ds.WindowStart) || p.CreatedAt.After(ds.WindowEnd) {
			t.Fatalf("post outside window: %v", p.CreatedAt)
		}
		langs[p.Lang]++
	}
	if langs["en"] == 0 || langs["ja"] == 0 {
		t.Fatalf("language mix broken: %v", langs)
	}
}

// pearson computes the correlation coefficient.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestGenerationSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	start := time.Now()
	Generate(Config{Scale: 400, Seed: 9})
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("generation at 1:400 took %v", d)
	}
}

// TestPaddedMatchesFmt pins the per-record formatting helper to the
// fmt verb it replaced, so identifiers keep their exact bytes.
func TestPaddedMatchesFmt(t *testing.T) {
	type tc struct {
		v int64
		w int
	}
	cases := []tc{
		{0, 0}, {0, 1}, {0, 7}, {0, 24},
		{123456, 7}, {1234567, 7}, {12345678, 7}, // one short, exact, wider
		{12345, 6}, {123456, 6}, {1234567, 6},
		{9_999_999_999, 11}, {99_999_999_999, 11}, {999_999_999_999, 11},
		{7, 3}, {1234, 3},
		{math.MaxInt64, 24}, {math.MaxInt64, 3},
	}
	for k := int64(0); k < 4; k++ {
		for _, i := range []int64{0, 1, 499, 27_619} {
			cases = append(cases, tc{k*didPartitionStride + i, 24})
		}
	}
	var buf []byte
	for _, c := range cases {
		want := fmt.Sprintf("at://%0*d.bsky.social", c.w, c.v)
		if got := padded(&buf, "at://", c.v, c.w, ".bsky.social"); got != want {
			t.Errorf("padded(%d, %d) = %q, want %q", c.v, c.w, got, want)
		}
	}
}
