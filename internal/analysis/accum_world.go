package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blueskies/internal/core"
	"blueskies/internal/feedgen"
)

// Accumulators over the non-label collections, plus the render-only
// reports that read scalar dataset fields.

// ---- Section 4: headline dataset counts ----

type section4Acc struct{}

func newSection4Acc() Accumulator { return section4Acc{} }

type section4Shard struct {
	NopShard
	posts, likes, reposts, follows, blocks int64
}

func (section4Acc) IDs() []string         { return []string{"S4"} }
func (section4Acc) Needs() Collection     { return ColDays }
func (section4Acc) NewShard(*World) Shard { return &section4Shard{} }

func (s *section4Shard) Days(days []core.DayActivity, _ int) {
	for i := range days {
		s.posts += int64(days[i].Posts)
		s.likes += int64(days[i].Likes)
		s.reposts += int64(days[i].Reposts)
		s.follows += int64(days[i].Follows)
		s.blocks += int64(days[i].Blocks)
	}
}

func (section4Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*section4Shard), src.(*section4Shard)
	d.posts += s.posts
	d.likes += s.likes
	d.reposts += s.reposts
	d.follows += s.follows
	d.blocks += s.blocks
}

func (section4Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	s := sh.(*section4Shard)
	r := &Report{
		ID:     "S4",
		Title:  "Dataset totals (scaled 1:" + fmt.Sprint(w.Scale) + ")",
		Header: []string{"metric", "value"},
	}
	add := func(k string, v any) { r.Rows = append(r.Rows, []string{k, fmt.Sprint(v)}) }
	add("users", w.Users)
	add("likes (accumulated ops)", s.likes)
	add("posts (accumulated ops)", s.posts)
	add("follows (accumulated ops)", s.follows)
	add("reposts (accumulated ops)", s.reposts)
	add("blocks (accumulated ops)", s.blocks)
	add("firehose events", w.Firehose.Total())
	add("non-Bluesky lexicon events", w.NonBskyEvents)
	add("feed generators", w.FeedGens)
	add("labelers announced", len(w.Labelers))
	add("label interactions", w.Labels)
	return []*Report{r}
}

// ---- Section 5: identity statistics ----

type section5Acc struct{}

func newSection5Acc() Accumulator { return section5Acc{} }

type section5Shard struct {
	NopShard
	bsky, alt, didWeb, txt, wk int
	tranco                     int
	dids                       map[string]bool
	final                      map[string]string
}

func (section5Acc) IDs() []string { return []string{"S5"} }
func (section5Acc) Needs() Collection {
	return ColUsers | ColDomains | ColHandleUpdates
}
func (section5Acc) NewShard(*World) Shard {
	return &section5Shard{dids: map[string]bool{}, final: map[string]string{}}
}

func (s *section5Shard) Users(us []core.User, _ int) {
	for i := range us {
		u := &us[i]
		if strings.HasSuffix(u.Handle, ".bsky.social") {
			s.bsky++
		} else {
			s.alt++
		}
		if u.DIDMethod == "web" {
			s.didWeb++
		}
		switch u.Proof {
		case core.ProofDNSTXT:
			s.txt++
		case core.ProofWellKnown:
			s.wk++
		}
	}
}

func (s *section5Shard) Domains(doms []core.Domain, _ int) {
	for i := range doms {
		if doms[i].TrancoRank > 0 {
			s.tranco++
		}
	}
}

func (s *section5Shard) HandleUpdates(hus []core.HandleUpdate, _ int) {
	for i := range hus {
		s.dids[hus[i].DID] = true
		s.final[hus[i].DID] = hus[i].NewHandle
	}
}

func (section5Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*section5Shard), src.(*section5Shard)
	d.bsky += s.bsky
	d.alt += s.alt
	d.didWeb += s.didWeb
	d.txt += s.txt
	d.wk += s.wk
	d.tranco += s.tranco
	for did := range s.dids {
		d.dids[did] = true
	}
	// src holds later updates than dst (shards merge in index order),
	// so src's final handle wins.
	for did, h := range s.final {
		d.final[did] = h
	}
}

func (s *section5Shard) stats(w *World) IdentityStats {
	var st IdentityStats
	st.Users = w.Users
	st.AltHandles = s.alt
	st.DIDWeb = s.didWeb
	st.BskySocialShare = float64(s.bsky) / float64(st.Users)
	if s.txt+s.wk > 0 {
		st.TXTShare = float64(s.txt) / float64(s.txt+s.wk)
		st.WellKnownShare = float64(s.wk) / float64(s.txt+s.wk)
	}
	st.RegisteredDoms = w.Domains
	if w.Domains > 0 {
		st.TrancoShare = float64(s.tranco) / float64(w.Domains)
	}
	st.HandleUpdates = w.HandleUpdates
	st.UpdatingDIDs = len(s.dids)
	toBsky := 0
	for _, h := range s.final {
		if strings.HasSuffix(h, ".bsky.social") {
			toBsky++
		}
	}
	if len(s.final) > 0 {
		st.FinalBskyShare = float64(toBsky) / float64(len(s.final))
	}
	return st
}

func (section5Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{renderSection5(sh.(*section5Shard).stats(w))}
}

// ---- Table 1: firehose event types (scalar fields only) ----

type table1Acc struct{}

func newTable1Acc() Accumulator { return table1Acc{} }

func (table1Acc) IDs() []string                 { return []string{"T1"} }
func (table1Acc) Needs() Collection             { return 0 }
func (table1Acc) NewShard(*World) Shard         { return NopShard{} }
func (table1Acc) Merge(_, _ Shard, _ *MergeCtx) {}

func (table1Acc) Render(w *World, _ Shard, _ *LabelTables) []*Report {
	e := w.Firehose
	total := e.Total()
	return []*Report{{
		ID:     "T1",
		Title:  "Overview of Firehose event types",
		Header: []string{"Event Type", "# Total", "Share (%)"},
		Rows: [][]string{
			{"Repo Commit", fmt.Sprint(e.Commits), pct(e.Commits, total)},
			{"Identity Update", fmt.Sprint(e.Identity), pct(e.Identity, total)},
			{"User Handle Update", fmt.Sprint(e.Handle), pct(e.Handle, total)},
			{"Repo Tombstone", fmt.Sprint(e.Tombstone), pct(e.Tombstone, total)},
		},
	}}
}

// ---- Table 2: registrar concentration ----

type table2Acc struct{}

func newTable2Acc() Accumulator { return table2Acc{} }

type table2Shard struct {
	NopShard
	counts map[int]*RegistrarRow
	withID int
}

func (table2Acc) IDs() []string     { return []string{"T2"} }
func (table2Acc) Needs() Collection { return ColDomains }
func (table2Acc) NewShard(*World) Shard {
	return &table2Shard{counts: map[int]*RegistrarRow{}}
}

func (s *table2Shard) Domains(doms []core.Domain, _ int) {
	for i := range doms {
		d := &doms[i]
		if d.IANAID == 0 {
			continue
		}
		s.withID++
		row, ok := s.counts[d.IANAID]
		if !ok {
			row = &RegistrarRow{IANAID: d.IANAID, Name: d.RegistrarName}
			s.counts[d.IANAID] = row
		}
		row.Count++
	}
}

func (table2Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*table2Shard), src.(*table2Shard)
	d.withID += s.withID
	for id, row := range s.counts {
		dr, ok := d.counts[id]
		if !ok {
			cp := *row
			d.counts[id] = &cp
			continue
		}
		dr.Count += row.Count
	}
}

func (s *table2Shard) rows() []RegistrarRow {
	rows := make([]RegistrarRow, 0, len(s.counts))
	for _, row := range s.counts {
		r := *row
		r.Share = float64(r.Count) / float64(s.withID)
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].IANAID < rows[j].IANAID
	})
	return rows
}

func (table2Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	s := sh.(*table2Shard)
	return []*Report{renderTable2(s.rows(), s.withID)}
}

// ---- Table 5: FGaaS feature matrix ----

type table5Acc struct{}

func newTable5Acc() Accumulator { return table5Acc{} }

type table5Shard struct {
	NopShard
	feeds map[string]int
}

func (table5Acc) IDs() []string     { return []string{"T5"} }
func (table5Acc) Needs() Collection { return ColFeedGens }
func (table5Acc) NewShard(*World) Shard {
	return &table5Shard{feeds: map[string]int{}}
}

func (s *table5Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		s.feeds[strings.ToLower(fs[i].Platform)]++
	}
}

func (table5Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*table5Shard), src.(*table5Shard)
	for k, n := range s.feeds {
		d.feeds[k] += n
	}
}

func (table5Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{renderTable5(sh.(*table5Shard).feeds)}
}

// ---- Figures 1–2: daily activity series ----

type figure1Acc struct{}

func newFigure1Acc() Accumulator { return figure1Acc{} }

type weeklyShard struct {
	NopShard
	langs []string
	rows  [][]string
}

func (figure1Acc) IDs() []string         { return []string{"F1"} }
func (figure1Acc) Needs() Collection     { return ColDays }
func (figure1Acc) NewShard(*World) Shard { return &weeklyShard{} }

func (s *weeklyShard) Days(days []core.DayActivity, base int) {
	for i := range days {
		if (base+i)%7 != 0 {
			continue
		}
		d := &days[i]
		if s.langs == nil {
			s.rows = append(s.rows, []string{
				d.Date.Format("2006-01-02"),
				fmt.Sprint(d.ActiveUsers), fmt.Sprint(d.Posts), fmt.Sprint(d.Likes),
				fmt.Sprint(d.Reposts), fmt.Sprint(d.Follows), fmt.Sprint(d.Blocks),
			})
			continue
		}
		row := []string{d.Date.Format("2006-01-02")}
		for _, l := range s.langs {
			row = append(row, fmt.Sprint(d.ActiveByLang[l]))
		}
		s.rows = append(s.rows, row)
	}
}

func mergeWeekly(dst, src Shard) {
	d, s := dst.(*weeklyShard), src.(*weeklyShard)
	d.rows = append(d.rows, s.rows...)
}

func (figure1Acc) Merge(dst, src Shard, _ *MergeCtx) { mergeWeekly(dst, src) }

func (figure1Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{{
		ID:     "F1",
		Title:  "Daily operation and active user counts (weekly samples)",
		Header: []string{"week", "active", "posts", "likes", "reposts", "follows", "blocks"},
		Rows:   sh.(*weeklyShard).rows,
	}}
}

var figure2Langs = []string{"en", "ja", "pt", "de", "ko", "fr"}

type figure2Acc struct{}

func newFigure2Acc() Accumulator { return figure2Acc{} }

func (figure2Acc) IDs() []string     { return []string{"F2"} }
func (figure2Acc) Needs() Collection { return ColDays }
func (figure2Acc) NewShard(*World) Shard {
	return &weeklyShard{langs: figure2Langs}
}
func (figure2Acc) Merge(dst, src Shard, _ *MergeCtx) { mergeWeekly(dst, src) }

func (figure2Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{{
		ID:     "F2",
		Title:  "Active user counts of language communities (weekly samples)",
		Header: append([]string{"week"}, figure2Langs...),
		Rows:   sh.(*weeklyShard).rows,
	}}
}

// ---- Figure 3: handle concentration ----

type figure3Acc struct{}

func newFigure3Acc() Accumulator { return figure3Acc{} }

type figure3Shard struct {
	NopShard
	doms []core.Domain
}

func (figure3Acc) IDs() []string         { return []string{"F3"} }
func (figure3Acc) Needs() Collection     { return ColDomains }
func (figure3Acc) NewShard(*World) Shard { return &figure3Shard{} }

func (s *figure3Shard) Domains(doms []core.Domain, _ int) {
	s.doms = append(s.doms, doms...)
}

func (figure3Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*figure3Shard), src.(*figure3Shard)
	d.doms = append(d.doms, s.doms...)
}

func (figure3Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	// Sort a copy: renders must leave shard state untouched so a
	// streaming snapshot can render again after more records arrive.
	doms := append([]core.Domain(nil), sh.(*figure3Shard).doms...)
	sort.SliceStable(doms, func(i, j int) bool { return doms[i].Subdomains > doms[j].Subdomains })
	r := &Report{
		ID:     "F3",
		Title:  "Subdomain handles per registered domain (bsky.social excluded)",
		Header: []string{"registered domain", "# subdomain handles"},
	}
	for i, d := range doms {
		if i >= 10 {
			break
		}
		r.Rows = append(r.Rows, []string{d.Name, fmt.Sprint(d.Subdomains)})
	}
	hist := map[int]int{}
	for _, d := range doms {
		switch {
		case d.Subdomains == 1:
			hist[1]++
		case d.Subdomains <= 5:
			hist[5]++
		case d.Subdomains <= 50:
			hist[50]++
		default:
			hist[51]++
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"distribution: %d domains with 1 handle, %d with 2–5, %d with 6–50, %d with >50",
		hist[1], hist[5], hist[50], hist[51]))
	return []*Report{r}
}

// ---- Figure 7: feed generator growth ----

type figure7Acc struct{}

func newFigure7Acc() Accumulator { return figure7Acc{} }

type fgGrowth struct {
	created    time.Time
	likes      int
	creatorIdx int
}

type figure7Shard struct {
	NopShard
	fgs []fgGrowth
}

func (figure7Acc) IDs() []string         { return []string{"F7"} }
func (figure7Acc) Needs() Collection     { return ColFeedGens }
func (figure7Acc) NewShard(*World) Shard { return &figure7Shard{} }

func (s *figure7Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		s.fgs = append(s.fgs, fgGrowth{fs[i].CreatedAt, fs[i].Likes, fs[i].CreatorIdx})
	}
}

func (figure7Acc) Merge(dst, src Shard, mc *MergeCtx) {
	d, s := dst.(*figure7Shard), src.(*figure7Shard)
	if mc == nil || mc.Users == 0 {
		d.fgs = append(d.fgs, s.fgs...)
		return
	}
	// Cross-partition merge of an independent dataset: creator indexes
	// are partition-local and rebase into the merged user table.
	for _, fg := range s.fgs {
		fg.creatorIdx = mc.RemapUser(fg.creatorIdx)
		d.fgs = append(d.fgs, fg)
	}
}

func (figure7Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	// Sort a copy of the projection: the dataset must never be
	// reordered by a traversal, and the shard must stay untouched so a
	// streaming snapshot can render it again.
	fgs := append([]fgGrowth(nil), sh.(*figure7Shard).fgs...)
	sort.SliceStable(fgs, func(i, j int) bool { return fgs[i].created.Before(fgs[j].created) })
	r := &Report{
		ID:     "F7",
		Title:  "Cumulative feed generators, likes on them, and creator followers",
		Header: []string{"month", "# feed generators", "Σ likes", "Σ creator followers"},
	}
	if len(fgs) == 0 {
		return []*Report{r}
	}
	var cumFG, cumLikes, cumFollows int
	seenCreator := map[int]bool{}
	cursor := 0
	for m := monthOf(fgs[0].created); !m.After(w.WindowEnd); m = m.AddDate(0, 1, 0) {
		for cursor < len(fgs) && monthOf(fgs[cursor].created).Equal(m) {
			fg := fgs[cursor]
			cumFG++
			cumLikes += fg.likes
			if !seenCreator[fg.creatorIdx] {
				seenCreator[fg.creatorIdx] = true
				cumFollows += w.Followers(fg.creatorIdx)
			}
			cursor++
		}
		r.Rows = append(r.Rows, []string{
			m.Format("2006-01"), fmt.Sprint(cumFG), fmt.Sprint(cumLikes), fmt.Sprint(cumFollows),
		})
	}
	return []*Report{r}
}

// ---- Figure 8: description word cloud ----

type figure8Acc struct{}

func newFigure8Acc() Accumulator { return figure8Acc{} }

type figure8Shard struct {
	NopShard
	counts map[string]int
}

func (figure8Acc) IDs() []string     { return []string{"F8"} }
func (figure8Acc) Needs() Collection { return ColFeedGens }
func (figure8Acc) NewShard(*World) Shard {
	return &figure8Shard{counts: map[string]int{}}
}

func (s *figure8Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		for _, w := range strings.Fields(strings.ToLower(fs[i].Description)) {
			if len(w) < 2 {
				continue
			}
			s.counts[w]++
		}
	}
}

func (figure8Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*figure8Shard), src.(*figure8Shard)
	for w, n := range s.counts {
		d.counts[w] += n
	}
}

func (figure8Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	r := &Report{
		ID:     "F8",
		Title:  "Most common words in feed generator descriptions",
		Header: []string{"word", "count"},
	}
	for _, kv := range topK(sh.(*figure8Shard).counts, 20) {
		r.Rows = append(r.Rows, []string{kv.Key, fmt.Sprint(kv.Count)})
	}
	return []*Report{r}
}

// ---- Figure 9: top labels of labeled feeds ----

type figure9Acc struct{}

func newFigure9Acc() Accumulator { return figure9Acc{} }

type figure9Shard struct {
	NopShard
	counts      map[string]int
	some, heavy int
}

func (figure9Acc) IDs() []string     { return []string{"F9"} }
func (figure9Acc) Needs() Collection { return ColFeedGens }
func (figure9Acc) NewShard(*World) Shard {
	return &figure9Shard{counts: map[string]int{}}
}

func (s *figure9Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		fg := &fs[i]
		if fg.LabeledShare > 0 {
			s.some++
		}
		if fg.LabeledShare >= 0.10 {
			s.heavy++
			s.counts[fg.TopLabel]++
		}
	}
}

func (figure9Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*figure9Shard), src.(*figure9Shard)
	d.some += s.some
	d.heavy += s.heavy
	for k, n := range s.counts {
		d.counts[k] += n
	}
}

func (figure9Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	s := sh.(*figure9Shard)
	r := &Report{
		ID:     "F9",
		Title:  "Top labels associated with posts curated by feed generators (≥10 % labeled)",
		Header: []string{"label", "# feed generators"},
	}
	for _, kv := range topK(s.counts, 10) {
		r.Rows = append(r.Rows, []string{kv.Key, fmt.Sprint(kv.Count)})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("feeds with any labeled content: %s; with ≥10%% labeled: %s",
			pct(int64(s.some), int64(w.FeedGens)), pct(int64(s.heavy), int64(w.FeedGens))))
	return []*Report{r}
}

// ---- Figure 10: posts vs likes scatter ----

type figure10Acc struct{}

func newFigure10Acc() Accumulator { return figure10Acc{} }

type figure10Shard struct {
	NopShard
	counts map[[2]string]int
	notes  []string
}

func (figure10Acc) IDs() []string     { return []string{"F10"} }
func (figure10Acc) Needs() Collection { return ColFeedGens }
func (figure10Acc) NewShard(*World) Shard {
	return &figure10Shard{counts: map[[2]string]int{}}
}

func logBin(n int) string {
	if n == 0 {
		return "0"
	}
	p := 0
	for v := n; v >= 10; v /= 10 {
		p++
	}
	return fmt.Sprintf("10^%d", p)
}

func (s *figure10Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		fg := &fs[i]
		s.counts[[2]string{logBin(fg.Posts), logBin(fg.Likes)}]++
		switch fg.DisplayName {
		case "the-algorithm", "whats-hot", "4dff350a5a3e", "hebrew-feed":
			s.notes = append(s.notes, fmt.Sprintf("%s: posts=%d likes=%d personalized=%v",
				fg.DisplayName, fg.Posts, fg.Likes, fg.Personalized))
		}
	}
}

func (figure10Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*figure10Shard), src.(*figure10Shard)
	for k, n := range s.counts {
		d.counts[k] += n
	}
	d.notes = append(d.notes, s.notes...)
}

func (figure10Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	s := sh.(*figure10Shard)
	r := &Report{
		ID:     "F10",
		Title:  "Feed generator curated posts vs like count (log-binned)",
		Header: []string{"posts bin", "likes bin", "# feeds"},
	}
	keys := make([][2]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		r.Rows = append(r.Rows, []string{k[0], k[1], fmt.Sprint(s.counts[k])})
	}
	r.Notes = append(r.Notes, s.notes...)
	sort.Strings(r.Notes)
	return []*Report{r}
}

// ---- Figure 11: degree distributions ----

const maxLogBins = 32 // 4^32 far exceeds any follower count

// log4Bin returns the bin index of degree d (bins [4^k, 4^(k+1)-1]),
// or -1 for degrees below 1 — matching the legacy bin search.
func log4Bin(d int) int {
	if d < 1 {
		return -1
	}
	k := 0
	for v := d; v >= 4; v >>= 2 {
		k++
	}
	return k
}

type figure11Acc struct{}

func newFigure11Acc() Accumulator { return figure11Acc{} }

type creatorAgg struct {
	likes int64
	count int64
}

type figure11Shard struct {
	NopShard
	inBins, outBins [maxLogBins]int
	maxDeg          int
	creators        map[int]*creatorAgg
}

func (figure11Acc) IDs() []string     { return []string{"F11"} }
func (figure11Acc) Needs() Collection { return ColUsers | ColFeedGens }
func (figure11Acc) NewShard(*World) Shard {
	return &figure11Shard{maxDeg: 1, creators: map[int]*creatorAgg{}}
}

func (s *figure11Shard) Users(us []core.User, _ int) {
	for i := range us {
		u := &us[i]
		if u.Followers > s.maxDeg {
			s.maxDeg = u.Followers
		}
		if u.Following > s.maxDeg {
			s.maxDeg = u.Following
		}
		if b := log4Bin(u.Followers); b >= 0 {
			s.inBins[b]++
		}
		if b := log4Bin(u.Following); b >= 0 {
			s.outBins[b]++
		}
	}
}

func (s *figure11Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		fg := &fs[i]
		a := s.creators[fg.CreatorIdx]
		if a == nil {
			a = &creatorAgg{}
			s.creators[fg.CreatorIdx] = a
		}
		a.likes += int64(fg.Likes)
		a.count++
	}
}

func (figure11Acc) Merge(dst, src Shard, mc *MergeCtx) {
	d, s := dst.(*figure11Shard), src.(*figure11Shard)
	if s.maxDeg > d.maxDeg {
		d.maxDeg = s.maxDeg
	}
	for b := 0; b < maxLogBins; b++ {
		d.inBins[b] += s.inBins[b]
		d.outBins[b] += s.outBins[b]
	}
	for ci, a := range s.creators {
		// Partition-local creator indexes rebase into the merged user
		// table (RemapUser is identity for split merges).
		gci := mc.RemapUser(ci)
		da := d.creators[gci]
		if da == nil {
			d.creators[gci] = &creatorAgg{likes: a.likes, count: a.count}
			continue
		}
		da.likes += a.likes
		da.count += a.count
	}
}

func (s *figure11Shard) bins(w *World) []DegreeBin {
	var bins []DegreeBin
	for lo := 1; lo <= s.maxDeg; lo *= 4 {
		bins = append(bins, DegreeBin{Lo: lo, Hi: lo*4 - 1})
	}
	for b := range bins {
		bins[b].InCount = s.inBins[b]
		bins[b].OutCount = s.outBins[b]
	}
	for _, ci := range sortedCreatorIdxs(s.creators) {
		if b := log4Bin(w.Followers(ci)); b >= 0 && b < len(bins) {
			bins[b].InFGCreators++
		}
	}
	return bins
}

func sortedCreatorIdxs(m map[int]*creatorAgg) []int {
	idxs := make([]int, 0, len(m))
	for ci := range m {
		idxs = append(idxs, ci)
	}
	sort.Ints(idxs)
	return idxs
}

func (figure11Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	s := sh.(*figure11Shard)
	bins := s.bins(w)
	r := &Report{
		ID:     "F11",
		Title:  "Follow degree distributions; feed generator creators highlighted",
		Header: []string{"degree bin", "# users (in)", "FG creators (in)", "# users (out)"},
	}
	for _, b := range bins {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d–%d", b.Lo, b.Hi),
			fmt.Sprint(b.InCount), fmt.Sprint(b.InFGCreators), fmt.Sprint(b.OutCount),
		})
	}
	// §7.1 correlations, over creators in deterministic index order.
	var xs, ys, cs []float64
	for _, ci := range sortedCreatorIdxs(s.creators) {
		a := s.creators[ci]
		xs = append(xs, float64(a.likes))
		ys = append(ys, float64(w.Followers(ci)))
		cs = append(cs, float64(a.count))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("Pearson r(Σ feed likes, followers) = %.3f (paper: 0.533)", Pearson(xs, ys)),
		fmt.Sprintf("Pearson r(# feeds, followers) = %.3f (paper: 0.005)", Pearson(cs, ys)))
	return []*Report{r}
}

// ---- Figure 12 / provider shares ----

type figure12Acc struct{}

func newFigure12Acc() Accumulator { return figure12Acc{} }

type figure12Shard struct {
	NopShard
	agg                          map[string]*ProviderShare
	totFeeds, totPosts, totLikes int
}

func (figure12Acc) IDs() []string     { return []string{"F12"} }
func (figure12Acc) Needs() Collection { return ColFeedGens }
func (figure12Acc) NewShard(*World) Shard {
	return &figure12Shard{agg: map[string]*ProviderShare{}}
}

func (s *figure12Shard) FeedGens(fs []core.FeedGen, _ int) {
	for i := range fs {
		fg := &fs[i]
		p, ok := s.agg[fg.Platform]
		if !ok {
			p = &ProviderShare{Name: fg.Platform}
			s.agg[fg.Platform] = p
		}
		p.Feeds++
		p.PostsTotal += fg.Posts
		p.LikesTotal += fg.Likes
		s.totFeeds++
		s.totPosts += fg.Posts
		s.totLikes += fg.Likes
	}
}

func (figure12Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*figure12Shard), src.(*figure12Shard)
	d.totFeeds += s.totFeeds
	d.totPosts += s.totPosts
	d.totLikes += s.totLikes
	for name, p := range s.agg {
		dp, ok := d.agg[name]
		if !ok {
			cp := *p
			d.agg[name] = &cp
			continue
		}
		dp.Feeds += p.Feeds
		dp.PostsTotal += p.PostsTotal
		dp.LikesTotal += p.LikesTotal
	}
}

func (s *figure12Shard) shares() []ProviderShare {
	out := make([]ProviderShare, 0, len(s.agg))
	for _, p := range s.agg {
		cp := *p
		cp.FeedShare = float64(cp.Feeds) / float64(s.totFeeds)
		cp.PostShare = float64(cp.PostsTotal) / float64(s.totPosts)
		cp.LikeShare = float64(cp.LikesTotal) / float64(s.totLikes)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Feeds != out[j].Feeds {
			return out[i].Feeds > out[j].Feeds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (figure12Acc) Render(_ *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{renderFigure12(sh.(*figure12Shard).shares())}
}

// ---- Discussion (§9): bandwidth estimate ----

type discussionAcc struct{}

func newDiscussionAcc() Accumulator { return discussionAcc{} }

func (discussionAcc) IDs() []string                 { return []string{"S9"} }
func (discussionAcc) Needs() Collection             { return 0 }
func (discussionAcc) NewShard(*World) Shard         { return NopShard{} }
func (discussionAcc) Merge(_, _ Shard, _ *MergeCtx) {}

func (discussionAcc) Render(w *World, _ Shard, _ *LabelTables) []*Report {
	bw := estimateBandwidth(w.WindowStart, w.WindowEnd, w.Firehose, w.Scale)
	r := &Report{
		ID:     "S9",
		Title:  "Discussion: firehose scalability estimate",
		Header: []string{"metric", "value"},
	}
	r.Rows = append(r.Rows,
		[]string{"firehose events/day (scaled)", fmt.Sprintf("%.0f", bw.EventsPerDay)},
		[]string{"firehose MB/day per client (scaled)", fmt.Sprintf("%.1f", bw.BytesPerDay/1e6)},
		[]string{"projected GB/day per client (unscaled)", fmt.Sprintf("%.1f", bw.GBPerDayPaper)},
	)
	r.Notes = append(r.Notes, "paper §9 estimates ≈30 GB/day per subscribed client")
	return []*Report{r}
}

// ---- shard-state codecs (the wire forms of DESIGN.md §9) ----
//
// Each accumulator serializes its level-one-merged shard so a remote
// worker can ship it home for the level-two fold. Slices keep their
// order (some renders stable-sort, so order is state); maps with
// non-string keys travel as key-sorted pair slices, which also makes
// the encoding deterministic. Decoders validate table-indexed ids
// against StateBounds — see Accumulator.UnmarshalShard.

type wireSection4 struct {
	Posts   int64 `cbor:"p,omitempty"`
	Likes   int64 `cbor:"l,omitempty"`
	Reposts int64 `cbor:"r,omitempty"`
	Follows int64 `cbor:"f,omitempty"`
	Blocks  int64 `cbor:"b,omitempty"`
}

func (section4Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*section4Shard)
	return marshalState(&wireSection4{s.posts, s.likes, s.reposts, s.follows, s.blocks})
}

func (section4Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireSection4](data)
	if err != nil {
		return nil, err
	}
	return &section4Shard{posts: w.Posts, likes: w.Likes, reposts: w.Reposts, follows: w.Follows, blocks: w.Blocks}, nil
}

type wireSection5 struct {
	Bsky   int64             `cbor:"bsky,omitempty"`
	Alt    int64             `cbor:"alt,omitempty"`
	DIDWeb int64             `cbor:"didWeb,omitempty"`
	TXT    int64             `cbor:"txt,omitempty"`
	WK     int64             `cbor:"wk,omitempty"`
	Tranco int64             `cbor:"tranco,omitempty"`
	DIDs   []string          `cbor:"dids,omitempty"`
	Final  map[string]string `cbor:"final,omitempty"`
}

func (section5Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*section5Shard)
	w := &wireSection5{
		Bsky: int64(s.bsky), Alt: int64(s.alt), DIDWeb: int64(s.didWeb),
		TXT: int64(s.txt), WK: int64(s.wk), Tranco: int64(s.tranco),
		Final: s.final,
	}
	for did := range s.dids {
		w.DIDs = append(w.DIDs, did)
	}
	sort.Strings(w.DIDs)
	return marshalState(w)
}

func (section5Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireSection5](data)
	if err != nil {
		return nil, err
	}
	s := &section5Shard{
		bsky: int(w.Bsky), alt: int(w.Alt), didWeb: int(w.DIDWeb),
		txt: int(w.TXT), wk: int(w.WK), tranco: int(w.Tranco),
		dids: make(map[string]bool, len(w.DIDs)), final: w.Final,
	}
	if s.final == nil {
		s.final = map[string]string{}
	}
	for _, did := range w.DIDs {
		s.dids[did] = true
	}
	return s, nil
}

func (table1Acc) MarshalShard(Shard) ([]byte, error)                { return nil, nil }
func (table1Acc) UnmarshalShard([]byte, StateBounds) (Shard, error) { return NopShard{}, nil }

type wireRegistrar struct {
	ID    int64  `cbor:"id"`
	Name  string `cbor:"name,omitempty"`
	Count int64  `cbor:"n,omitempty"`
}

type wireTable2 struct {
	WithID int64           `cbor:"withID,omitempty"`
	Rows   []wireRegistrar `cbor:"rows,omitempty"`
}

func (table2Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*table2Shard)
	w := &wireTable2{WithID: int64(s.withID)}
	for id, row := range s.counts {
		w.Rows = append(w.Rows, wireRegistrar{ID: int64(id), Name: row.Name, Count: int64(row.Count)})
	}
	sort.Slice(w.Rows, func(i, j int) bool { return w.Rows[i].ID < w.Rows[j].ID })
	return marshalState(w)
}

func (table2Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireTable2](data)
	if err != nil {
		return nil, err
	}
	s := &table2Shard{counts: make(map[int]*RegistrarRow, len(w.Rows)), withID: int(w.WithID)}
	for _, r := range w.Rows {
		s.counts[int(r.ID)] = &RegistrarRow{IANAID: int(r.ID), Name: r.Name, Count: int(r.Count)}
	}
	return s, nil
}

func (table5Acc) MarshalShard(sh Shard) ([]byte, error) {
	return marshalState(sh.(*table5Shard).feeds)
}

func (table5Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[map[string]int](data)
	if err != nil {
		return nil, err
	}
	if *w == nil {
		*w = map[string]int{}
	}
	return &table5Shard{feeds: *w}, nil
}

type wireWeekly struct {
	Rows [][]string `cbor:"rows,omitempty"`
}

func marshalWeekly(sh Shard) ([]byte, error) {
	return marshalState(&wireWeekly{Rows: sh.(*weeklyShard).rows})
}

func unmarshalWeekly(data []byte, langs []string) (Shard, error) {
	w, err := unmarshalState[wireWeekly](data)
	if err != nil {
		return nil, err
	}
	return &weeklyShard{langs: langs, rows: w.Rows}, nil
}

func (figure1Acc) MarshalShard(sh Shard) ([]byte, error) { return marshalWeekly(sh) }
func (figure1Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	return unmarshalWeekly(data, nil)
}

func (figure2Acc) MarshalShard(sh Shard) ([]byte, error) { return marshalWeekly(sh) }
func (figure2Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	return unmarshalWeekly(data, figure2Langs)
}

type wireFigure3 struct {
	Doms []core.Domain `cbor:"doms,omitempty"`
}

func (figure3Acc) MarshalShard(sh Shard) ([]byte, error) {
	return marshalState(&wireFigure3{Doms: sh.(*figure3Shard).doms})
}

func (figure3Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure3](data)
	if err != nil {
		return nil, err
	}
	return &figure3Shard{doms: w.Doms}, nil
}

type wireFGGrowth struct {
	CreatedNS int64 `cbor:"c,omitempty"`
	Likes     int64 `cbor:"l,omitempty"`
	Creator   int64 `cbor:"u,omitempty"`
}

type wireFigure7 struct {
	FGs []wireFGGrowth `cbor:"fgs,omitempty"`
}

func (figure7Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure7Shard)
	w := &wireFigure7{FGs: make([]wireFGGrowth, 0, len(s.fgs))}
	for _, fg := range s.fgs {
		var ns int64
		if !fg.created.IsZero() {
			ns = fg.created.UnixNano()
		}
		w.FGs = append(w.FGs, wireFGGrowth{CreatedNS: ns, Likes: int64(fg.likes), Creator: int64(fg.creatorIdx)})
	}
	return marshalState(w)
}

func (figure7Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure7](data)
	if err != nil {
		return nil, err
	}
	s := &figure7Shard{fgs: make([]fgGrowth, 0, len(w.FGs))}
	for _, fg := range w.FGs {
		if fg.Creator < 0 {
			return nil, fmt.Errorf("negative creator index %d", fg.Creator)
		}
		var created time.Time
		if fg.CreatedNS != 0 {
			created = time.Unix(0, fg.CreatedNS).UTC()
		}
		s.fgs = append(s.fgs, fgGrowth{created: created, likes: int(fg.Likes), creatorIdx: int(fg.Creator)})
	}
	return s, nil
}

func (figure8Acc) MarshalShard(sh Shard) ([]byte, error) {
	return marshalState(sh.(*figure8Shard).counts)
}

func (figure8Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[map[string]int](data)
	if err != nil {
		return nil, err
	}
	if *w == nil {
		*w = map[string]int{}
	}
	return &figure8Shard{counts: *w}, nil
}

type wireFigure9 struct {
	Some   int64          `cbor:"some,omitempty"`
	Heavy  int64          `cbor:"heavy,omitempty"`
	Counts map[string]int `cbor:"counts,omitempty"`
}

func (figure9Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure9Shard)
	return marshalState(&wireFigure9{Some: int64(s.some), Heavy: int64(s.heavy), Counts: s.counts})
}

func (figure9Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure9](data)
	if err != nil {
		return nil, err
	}
	if w.Counts == nil {
		w.Counts = map[string]int{}
	}
	return &figure9Shard{counts: w.Counts, some: int(w.Some), heavy: int(w.Heavy)}, nil
}

type wireBinCount struct {
	Posts string `cbor:"p,omitempty"`
	Likes string `cbor:"l,omitempty"`
	N     int64  `cbor:"n,omitempty"`
}

type wireFigure10 struct {
	Bins  []wireBinCount `cbor:"bins,omitempty"`
	Notes []string       `cbor:"notes,omitempty"`
}

func (figure10Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure10Shard)
	w := &wireFigure10{Notes: s.notes}
	for k, n := range s.counts {
		w.Bins = append(w.Bins, wireBinCount{Posts: k[0], Likes: k[1], N: int64(n)})
	}
	sort.Slice(w.Bins, func(i, j int) bool {
		if w.Bins[i].Posts != w.Bins[j].Posts {
			return w.Bins[i].Posts < w.Bins[j].Posts
		}
		return w.Bins[i].Likes < w.Bins[j].Likes
	})
	return marshalState(w)
}

func (figure10Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure10](data)
	if err != nil {
		return nil, err
	}
	s := &figure10Shard{counts: make(map[[2]string]int, len(w.Bins)), notes: w.Notes}
	for _, b := range w.Bins {
		s.counts[[2]string{b.Posts, b.Likes}] += int(b.N)
	}
	return s, nil
}

// maxWireDegree bounds a deserialized maxDeg: bins() derives the bin
// list from it, so an absurd degree must fail decode instead of
// driving the render loop into overflow.
const maxWireDegree = 1 << 40

type wireCreator struct {
	Idx   int64 `cbor:"i"`
	Likes int64 `cbor:"l,omitempty"`
	Count int64 `cbor:"n,omitempty"`
}

type wireFigure11 struct {
	InBins   []int64       `cbor:"in,omitempty"`
	OutBins  []int64       `cbor:"out,omitempty"`
	MaxDeg   int64         `cbor:"maxDeg,omitempty"`
	Creators []wireCreator `cbor:"creators,omitempty"`
}

func (figure11Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure11Shard)
	w := &wireFigure11{
		InBins:  make([]int64, maxLogBins),
		OutBins: make([]int64, maxLogBins),
		MaxDeg:  int64(s.maxDeg),
	}
	for b := 0; b < maxLogBins; b++ {
		w.InBins[b] = int64(s.inBins[b])
		w.OutBins[b] = int64(s.outBins[b])
	}
	for ci, a := range s.creators {
		w.Creators = append(w.Creators, wireCreator{Idx: int64(ci), Likes: a.likes, Count: a.count})
	}
	sort.Slice(w.Creators, func(i, j int) bool { return w.Creators[i].Idx < w.Creators[j].Idx })
	return marshalState(w)
}

func (figure11Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure11](data)
	if err != nil {
		return nil, err
	}
	if len(w.InBins) > maxLogBins || len(w.OutBins) > maxLogBins {
		return nil, fmt.Errorf("%d/%d degree bins exceed the %d bound", len(w.InBins), len(w.OutBins), maxLogBins)
	}
	if w.MaxDeg < 0 || w.MaxDeg > maxWireDegree {
		return nil, fmt.Errorf("max degree %d outside [0, %d]", w.MaxDeg, int64(maxWireDegree))
	}
	s := &figure11Shard{maxDeg: int(w.MaxDeg), creators: make(map[int]*creatorAgg, len(w.Creators))}
	if s.maxDeg < 1 {
		s.maxDeg = 1
	}
	copy64 := func(dst *[maxLogBins]int, src []int64) {
		for b := range src {
			dst[b] = int(src[b])
		}
	}
	copy64(&s.inBins, w.InBins)
	copy64(&s.outBins, w.OutBins)
	for _, c := range w.Creators {
		if c.Idx < 0 {
			return nil, fmt.Errorf("negative creator index %d", c.Idx)
		}
		s.creators[int(c.Idx)] = &creatorAgg{likes: c.Likes, count: c.Count}
	}
	return s, nil
}

type wireProvider struct {
	Feeds int64 `cbor:"f,omitempty"`
	Posts int64 `cbor:"p,omitempty"`
	Likes int64 `cbor:"l,omitempty"`
}

type wireFigure12 struct {
	TotFeeds int64                   `cbor:"feeds,omitempty"`
	TotPosts int64                   `cbor:"posts,omitempty"`
	TotLikes int64                   `cbor:"likes,omitempty"`
	Agg      map[string]wireProvider `cbor:"agg,omitempty"`
}

func (figure12Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure12Shard)
	w := &wireFigure12{
		TotFeeds: int64(s.totFeeds), TotPosts: int64(s.totPosts), TotLikes: int64(s.totLikes),
		Agg: make(map[string]wireProvider, len(s.agg)),
	}
	for name, p := range s.agg {
		w.Agg[name] = wireProvider{Feeds: int64(p.Feeds), Posts: int64(p.PostsTotal), Likes: int64(p.LikesTotal)}
	}
	return marshalState(w)
}

func (figure12Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure12](data)
	if err != nil {
		return nil, err
	}
	s := &figure12Shard{
		agg:      make(map[string]*ProviderShare, len(w.Agg)),
		totFeeds: int(w.TotFeeds), totPosts: int(w.TotPosts), totLikes: int(w.TotLikes),
	}
	for name, p := range w.Agg {
		s.agg[name] = &ProviderShare{Name: name, Feeds: int(p.Feeds), PostsTotal: int(p.Posts), LikesTotal: int(p.Likes)}
	}
	return s, nil
}

func (discussionAcc) MarshalShard(Shard) ([]byte, error)                { return nil, nil }
func (discussionAcc) UnmarshalShard([]byte, StateBounds) (Shard, error) { return NopShard{}, nil }

// renderTable5 joins the static FGaaS feature matrix with per-platform
// feed counts.
func renderTable5(feeds map[string]int) *Report {
	platforms := feedgen.Platforms()
	features := []struct {
		Name string
		F    feedgen.Feature
	}{
		{"Input: whole network", feedgen.InWholeNetwork},
		{"Input: tags", feedgen.InTags},
		{"Input: single user", feedgen.InSingleUser},
		{"Input: list", feedgen.InList},
		{"Input: feed", feedgen.InFeed},
		{"Input: single post", feedgen.InSinglePost},
		{"Input: labels", feedgen.InLabels},
		{"Input: token", feedgen.InToken},
		{"Input: segment", feedgen.InSegment},
		{"Filter: item", feedgen.FiltItem},
		{"Filter: labels", feedgen.FiltLabels},
		{"Filter: image count", feedgen.FiltImageCount},
		{"Filter: link count", feedgen.FiltLinkCount},
		{"Filter: repost count", feedgen.FiltRepostCount},
		{"Filter: embed", feedgen.FiltEmbed},
		{"Filter: duplicate", feedgen.FiltDuplicate},
		{"Filter: list of users", feedgen.FiltUserList},
		{"Filter: language", feedgen.FiltLanguage},
		{"Filter: regex text", feedgen.FiltRegexText},
		{"Filter: regex image alt", feedgen.FiltRegexAlt},
		{"Filter: regex link", feedgen.FiltRegexLink},
	}
	header := []string{"Feature"}
	for _, p := range platforms {
		header = append(header, p.Name)
	}
	r := &Report{ID: "T5", Title: "Feed-Generator-as-a-Service feature comparison", Header: header}
	for _, f := range features {
		row := []string{f.Name}
		for _, p := range platforms {
			if p.Supports(f.F) {
				row = append(row, "yes")
			} else {
				row = append(row, "")
			}
		}
		r.Rows = append(r.Rows, row)
	}
	countRow := []string{"Number of feeds"}
	paidRow := []string{"Paid or free"}
	for _, p := range platforms {
		countRow = append(countRow, fmt.Sprint(feeds[strings.ToLower(p.Name)]))
		if p.Paid {
			paidRow = append(paidRow, "free & paid")
		} else {
			paidRow = append(paidRow, "free")
		}
	}
	r.Rows = append(r.Rows, countRow, paidRow)
	return r
}
