package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"blueskies/internal/core"
)

// Label-stream accumulators. All of them key their state by the
// engine's interned integer ids (URIID/ValID/LabelerIdx) instead of
// the string-keyed maps the legacy per-table scans used — the string
// hashing happens once in the shared traversal, not once per table.

const unseenSrc int32 = -1 << 30 // sentinel for "no source recorded yet"

func growI64(s []int64, n int) []int64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

func growBool(s []bool, n int) []bool {
	for len(s) < n {
		s = append(s, false)
	}
	return s
}

func growI32(s []int32, n int, fill int32) []int32 {
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

func pairKey(uriID, valID int32) int64 { return int64(uriID)<<32 | int64(valID) }

// ---- Section 6: label-value bookkeeping ----

type section6Acc struct{}

func newSection6Acc() Accumulator { return section6Acc{} }

type section6Shard struct {
	NopShard
	// appliedSeen marks values carried by at least one application
	// (negations never extend the set: a negation only "counts" after
	// an application with the same (src,uri,val), which already
	// recorded the value — so the cleaned census is order-free).
	appliedSeen []bool // by ValID
	// firstSrc/multiSrc track per-URI source diversity over
	// applications (MultiServiceObjects).
	firstSrc []int32 // by URIID; unseenSrc = no application yet
	multiSrc []bool  // by URIID
	labeled  int
	multi    int
	// pairs tracks per-(URI,value) source diversity
	// (SameValueDifferentSrc).
	pairs map[int64]*pairState
}

type pairState struct {
	firstSrc int32
	multi    bool
}

func (section6Acc) IDs() []string     { return []string{"S6"} }
func (section6Acc) Needs() Collection { return ColLabels }
func (section6Acc) NewShard(*World) Shard {
	return &section6Shard{pairs: make(map[int64]*pairState, 1024)}
}

func (s *section6Shard) Labels(c *LabelChunk) {
	s.appliedSeen = growBool(s.appliedSeen, c.NumVals)
	s.firstSrc = growI32(s.firstSrc, c.NumURIs, unseenSrc)
	s.multiSrc = growBool(s.multiSrc, c.NumURIs)
	for i := range c.Labels {
		if c.Labels[i].Neg {
			continue
		}
		m := &c.Meta[i]
		s.appliedSeen[m.ValID] = true
		if fs := s.firstSrc[m.URIID]; fs == unseenSrc {
			s.firstSrc[m.URIID] = m.LabelerIdx
			s.labeled++
		} else if fs != m.LabelerIdx && !s.multiSrc[m.URIID] {
			s.multiSrc[m.URIID] = true
			s.multi++
		}
		k := pairKey(m.URIID, m.ValID)
		if p, ok := s.pairs[k]; !ok {
			s.pairs[k] = &pairState{firstSrc: m.LabelerIdx}
		} else if p.firstSrc != m.LabelerIdx {
			p.multi = true
		}
	}
}

func (section6Acc) Merge(dst, src Shard, mc *MergeCtx) {
	d, s := dst.(*section6Shard), src.(*section6Shard)
	d.appliedSeen = growBool(d.appliedSeen, mc.NumVals)
	d.firstSrc = growI32(d.firstSrc, mc.NumURIs, unseenSrc)
	d.multiSrc = growBool(d.multiSrc, mc.NumURIs)
	for vid, seen := range s.appliedSeen {
		if seen {
			d.appliedSeen[mc.ValRemap[vid]] = true
		}
	}
	for uid, fs := range s.firstSrc {
		if fs == unseenSrc {
			continue
		}
		g := mc.URIRemap[uid]
		gs := mc.RemapSrc(fs)
		if d.firstSrc[g] == unseenSrc {
			d.firstSrc[g] = gs
			d.labeled++
			if s.multiSrc[uid] {
				d.multiSrc[g] = true
				d.multi++
			}
		} else if !d.multiSrc[g] && (s.multiSrc[uid] || d.firstSrc[g] != gs) {
			d.multiSrc[g] = true
			d.multi++
		}
	}
	for k, p := range s.pairs {
		gk := pairKey(mc.URIRemap[int32(k>>32)], mc.ValRemap[int32(k&0xffffffff)])
		gs := mc.RemapSrc(p.firstSrc)
		if dp, ok := d.pairs[gk]; !ok {
			d.pairs[gk] = &pairState{firstSrc: gs, multi: p.multi}
		} else if !dp.multi && (p.multi || dp.firstSrc != gs) {
			dp.multi = true
		}
	}
}

func (s *section6Shard) stats(t *LabelTables) LabelValueStats {
	var st LabelValueStats
	st.DistinctRaw = len(t.Vals)
	for _, seen := range s.appliedSeen {
		if seen {
			st.DistinctCleaned++
		}
	}
	st.LabeledObjects = s.labeled
	st.MultiServiceObjects = s.multi
	if st.LabeledObjects > 0 {
		st.MultiServiceShare = float64(st.MultiServiceObjects) / float64(st.LabeledObjects)
	}
	for _, p := range s.pairs {
		if p.multi {
			st.SameValueDifferentSrc++
		}
	}
	return st
}

func (section6Acc) Render(w *World, sh Shard, t *LabelTables) []*Report {
	return []*Report{renderSection6(w.Labelers, sh.(*section6Shard).stats(t))}
}

// ---- Table 3: top community labelers ----

type table3Acc struct{}

func newTable3Acc() Accumulator { return table3Acc{} }

type table3Shard struct {
	NopShard
	counts []int64 // applied (non-negation) labels by LabelerIdx
}

func (table3Acc) IDs() []string     { return []string{"T3"} }
func (table3Acc) Needs() Collection { return ColLabels }
func (table3Acc) NewShard(w *World) Shard {
	return &table3Shard{counts: make([]int64, len(w.Labelers))}
}

func (s *table3Shard) Labels(c *LabelChunk) {
	for i := range c.Labels {
		if c.Labels[i].Neg {
			continue
		}
		if idx := c.Meta[i].LabelerIdx; idx >= 0 {
			// Streams may announce labelers after shard allocation;
			// grow on demand (append-only DID-index growth).
			s.counts = growI64(s.counts, int(idx)+1)
			s.counts[idx]++
		}
	}
}

func (table3Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*table3Shard), src.(*table3Shard)
	d.counts = growI64(d.counts, len(s.counts))
	for i, n := range s.counts {
		d.counts[i] += n
	}
}

func communityTopFrom(labelers []core.Labeler, counts []int64) []LabelerVolume {
	var out []LabelerVolume
	for i, lb := range labelers {
		if lb.Official || i >= len(counts) {
			continue
		}
		if n := counts[i]; n > 0 {
			out = append(out, LabelerVolume{Labeler: lb, Applied: int(n)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Applied > out[j].Applied })
	return out
}

func (table3Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{renderTable3(communityTopFrom(w.Labelers, sh.(*table3Shard).counts))}
}

// ---- Table 4: label targets ----

var subjectKinds = []core.SubjectKind{
	core.SubjectPost, core.SubjectAccount, core.SubjectMedia, core.SubjectOther,
}

func kindIdx(k core.SubjectKind) int {
	switch k {
	case core.SubjectPost:
		return 0
	case core.SubjectAccount:
		return 1
	case core.SubjectMedia:
		return 2
	case core.SubjectOther:
		return 3
	}
	return -1
}

type table4Acc struct{}

func newTable4Acc() Accumulator { return table4Acc{} }

type table4Shard struct {
	NopShard
	kindMask []uint8 // by URIID: bit k set once the URI counted for kind k
	objects  [4]int64
	values   [4][]int64 // by ValID
}

func (table4Acc) IDs() []string         { return []string{"T4"} }
func (table4Acc) Needs() Collection     { return ColLabels }
func (table4Acc) NewShard(*World) Shard { return &table4Shard{} }

func (s *table4Shard) Labels(c *LabelChunk) {
	for len(s.kindMask) < c.NumURIs {
		s.kindMask = append(s.kindMask, 0)
	}
	for k := range s.values {
		s.values[k] = growI64(s.values[k], c.NumVals)
	}
	for i := range c.Labels {
		if c.Labels[i].Neg {
			continue
		}
		k := kindIdx(c.Labels[i].Kind)
		if k < 0 {
			continue
		}
		m := &c.Meta[i]
		if s.kindMask[m.URIID]&(1<<k) == 0 {
			s.kindMask[m.URIID] |= 1 << k
			s.objects[k]++
		}
		s.values[k][m.ValID]++
	}
}

func (table4Acc) Merge(dst, src Shard, mc *MergeCtx) {
	d, s := dst.(*table4Shard), src.(*table4Shard)
	for len(d.kindMask) < mc.NumURIs {
		d.kindMask = append(d.kindMask, 0)
	}
	for uid, mask := range s.kindMask {
		if mask == 0 {
			continue
		}
		g := mc.URIRemap[uid]
		for k := 0; k < 4; k++ {
			if mask&(1<<k) != 0 && d.kindMask[g]&(1<<k) == 0 {
				d.kindMask[g] |= 1 << k
				d.objects[k]++
			}
		}
	}
	for k := range d.values {
		d.values[k] = growI64(d.values[k], mc.NumVals)
		for vid, n := range s.values[k] {
			if n != 0 {
				d.values[k][mc.ValRemap[vid]] += n
			}
		}
	}
}

func (table4Acc) Render(_ *World, sh Shard, t *LabelTables) []*Report {
	s := sh.(*table4Shard)
	r := &Report{
		ID:     "T4",
		Title:  "Label targets with most-applied labels",
		Header: []string{"Object Type", "# Objects", "Share (%)", "Top Labels"},
	}
	var totalObjects int64
	for k := range subjectKinds {
		totalObjects += s.objects[k]
	}
	for k, kind := range subjectKinds {
		var kvs []KV
		for vid, n := range s.values[k] {
			if n > 0 {
				kvs = append(kvs, KV{Key: t.Vals[vid], Count: int(n)})
			}
		}
		var tl []string
		for _, kv := range topKVs(kvs, 5) {
			tl = append(tl, fmt.Sprintf("%s (%d)", kv.Key, kv.Count))
		}
		r.Rows = append(r.Rows, []string{
			string(kind), fmt.Sprint(s.objects[k]),
			pct(s.objects[k], totalObjects), strings.Join(tl, ", "),
		})
	}
	return []*Report{r}
}

// ---- Figure 4: labels by source per month ----

type figure4Acc struct{}

func newFigure4Acc() Accumulator { return figure4Acc{} }

type figure4Shard struct {
	NopShard
	byMonth map[int32]*[2]int // MonthIdx → {bluesky, community}
}

func (figure4Acc) IDs() []string     { return []string{"F4"} }
func (figure4Acc) Needs() Collection { return ColLabels }
func (figure4Acc) NewShard(*World) Shard {
	return &figure4Shard{byMonth: make(map[int32]*[2]int, 32)}
}

func (s *figure4Shard) Labels(c *LabelChunk) {
	for i := range c.Labels {
		if c.Labels[i].Neg {
			continue
		}
		m := &c.Meta[i]
		b := s.byMonth[m.MonthIdx]
		if b == nil {
			b = new([2]int)
			s.byMonth[m.MonthIdx] = b
		}
		if m.Official {
			b[0]++
		} else {
			b[1]++
		}
	}
}

func (figure4Acc) Merge(dst, src Shard, _ *MergeCtx) {
	d, s := dst.(*figure4Shard), src.(*figure4Shard)
	for idx, b := range s.byMonth {
		db := d.byMonth[idx]
		if db == nil {
			db = new([2]int)
			d.byMonth[idx] = db
		}
		db[0] += b[0]
		db[1] += b[1]
	}
}

func (s *figure4Shard) months(w *World) []MonthlyLabels {
	idxs := make([]int32, 0, len(s.byMonth))
	for idx := range s.byMonth {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	months := make([]MonthlyLabels, 0, len(idxs))
	for _, idx := range idxs {
		b := s.byMonth[idx]
		months = append(months, MonthlyLabels{Month: monthTime(idx), Bluesky: b[0], Community: b[1]})
	}
	for i := range months {
		n := 0
		for _, lb := range w.Labelers {
			if !lb.Official && !lb.Announced.After(months[i].Month.AddDate(0, 1, -1)) {
				n++
			}
		}
		months[i].Labelers = n
	}
	return months
}

func (figure4Acc) Render(w *World, sh Shard, _ *LabelTables) []*Report {
	return []*Report{renderFigure4(sh.(*figure4Shard).months(w))}
}

// ---- Table 6 + Figure 5: shared reaction-time aggregation ----

// labAgg is one labeler's fresh-post label aggregate.
type labAgg struct {
	total  int
	values []int64 // by ValID
	rts    []float64
}

type reactionAcc struct{}

func newReactionAcc() Accumulator { return reactionAcc{} }

type reactionShard struct {
	NopShard
	perLab []labAgg          // by LabelerIdx
	extra  map[int32]*labAgg // unknown sources, by negative src id
	total  int64
}

func (reactionAcc) IDs() []string     { return []string{"T6", "F5"} }
func (reactionAcc) Needs() Collection { return ColLabels }
func (reactionAcc) NewShard(w *World) Shard {
	return &reactionShard{perLab: make([]labAgg, len(w.Labelers))}
}

func (s *reactionShard) Labels(c *LabelChunk) {
	for i := range c.Labels {
		m := &c.Meta[i]
		if !m.FreshPost {
			continue
		}
		var agg *labAgg
		if m.LabelerIdx >= 0 {
			for len(s.perLab) <= int(m.LabelerIdx) {
				s.perLab = append(s.perLab, labAgg{}) // late-announced labeler
			}
			agg = &s.perLab[m.LabelerIdx]
		} else {
			agg = s.extra[m.LabelerIdx]
			if agg == nil {
				if s.extra == nil {
					s.extra = make(map[int32]*labAgg, 4)
				}
				agg = &labAgg{}
				s.extra[m.LabelerIdx] = agg
			}
		}
		agg.total++
		s.total++
		agg.values = growI64(agg.values, int(m.ValID)+1)
		agg.values[m.ValID]++
		agg.rts = append(agg.rts, m.RTSec)
	}
}

func mergeLabAgg(dst, src *labAgg, mc *MergeCtx) {
	dst.total += src.total
	dst.values = growI64(dst.values, mc.NumVals)
	for vid, n := range src.values {
		if n != 0 {
			dst.values[mc.ValRemap[vid]] += n
		}
	}
	dst.rts = append(dst.rts, src.rts...)
}

func (reactionAcc) Merge(dst, src Shard, mc *MergeCtx) {
	d, s := dst.(*reactionShard), src.(*reactionShard)
	d.total += s.total
	for len(d.perLab) < len(s.perLab) {
		d.perLab = append(d.perLab, labAgg{})
	}
	for i := range s.perLab {
		if s.perLab[i].total > 0 {
			mergeLabAgg(&d.perLab[i], &s.perLab[i], mc)
		}
	}
	for id, agg := range s.extra {
		gid := mc.RemapSrc(id)
		if d.extra == nil {
			d.extra = make(map[int32]*labAgg, len(s.extra))
		}
		dagg := d.extra[gid]
		if dagg == nil {
			dagg = &labAgg{}
			d.extra[gid] = dagg
		}
		mergeLabAgg(dagg, agg, mc)
	}
}

// nearestRank mirrors Quantile on an already-sorted sample.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// reactionRows builds the ReactionTimes rows plus each row's sorted
// reaction-time sample (sorted once, reused for median/IQD/quartiles —
// the legacy path re-sorted per quantile call).
func (s *reactionShard) reactionRows(w *World, t *LabelTables) ([]ReactionRow, [][]float64) {
	type cand struct {
		row ReactionRow
		agg *labAgg
	}
	var cands []cand
	for i := range s.perLab {
		if s.perLab[i].total > 0 {
			lb := w.Labelers[i]
			cands = append(cands, cand{
				row: ReactionRow{DID: lb.DID, Name: lb.Name, Official: lb.Official},
				agg: &s.perLab[i],
			})
		}
	}
	extraIDs := make([]int32, 0, len(s.extra))
	for id := range s.extra {
		extraIDs = append(extraIDs, id)
	}
	sort.Slice(extraIDs, func(i, j int) bool {
		return t.ExtraSrcs[-2-extraIDs[i]] < t.ExtraSrcs[-2-extraIDs[j]]
	})
	for _, id := range extraIDs {
		cands = append(cands, cand{
			row: ReactionRow{DID: t.ExtraSrcs[-2-id]},
			agg: s.extra[id],
		})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].agg.total > cands[j].agg.total })
	rows := make([]ReactionRow, 0, len(cands))
	samples := make([][]float64, 0, len(cands))
	for _, c := range cands {
		sorted := append([]float64(nil), c.agg.rts...)
		sort.Float64s(sorted)
		row := c.row
		row.Total = c.agg.total
		row.MedianSec = nearestRank(sorted, 0.5)
		row.IQDSec = nearestRank(sorted, 0.75) - nearestRank(sorted, 0.25)
		row.Share = float64(c.agg.total) / float64(s.total)
		var kvs []KV
		for vid, n := range c.agg.values {
			if n > 0 {
				row.Unique++
				kvs = append(kvs, KV{Key: t.Vals[vid], Count: int(n)})
			}
		}
		for _, kv := range topKVs(kvs, 3) {
			row.TopValues = append(row.TopValues, kv.Key)
		}
		rows = append(rows, row)
		samples = append(samples, sorted)
	}
	return rows, samples
}

func (reactionAcc) Render(w *World, sh Shard, t *LabelTables) []*Report {
	rows, samples := sh.(*reactionShard).reactionRows(w, t)
	t6 := renderTable6(rows)
	f5 := &Report{
		ID:     "F5",
		Title:  "Labels produced vs reaction time per labeler (median, Q1, Q3)",
		Header: []string{"labeler", "source", "# labels", "Q1", "median", "Q3"},
	}
	for i, row := range rows {
		src := "Community"
		if row.Official {
			src = "Bluesky"
		}
		f5.Rows = append(f5.Rows, []string{
			row.Name, src, fmt.Sprint(row.Total),
			FormatDuration(nearestRank(samples[i], 0.25)),
			FormatDuration(nearestRank(samples[i], 0.5)),
			FormatDuration(nearestRank(samples[i], 0.75)),
		})
	}
	return []*Report{t6, f5}
}

// ---- Figure 6: per-label-value reaction times ----

type figure6Acc struct{}

func newFigure6Acc() Accumulator { return figure6Acc{} }

type valAgg struct {
	present  bool
	official bool
	objects  int
	rts      []float64
}

type figure6Shard struct {
	NopShard
	perVal []valAgg           // by ValID
	seen   map[int64]struct{} // (URIID, ValID) pairs already counted
}

func (figure6Acc) IDs() []string     { return []string{"F6"} }
func (figure6Acc) Needs() Collection { return ColLabels }
func (figure6Acc) NewShard(*World) Shard {
	return &figure6Shard{seen: make(map[int64]struct{}, 1024)}
}

func (s *figure6Shard) Labels(c *LabelChunk) {
	for len(s.perVal) < c.NumVals {
		s.perVal = append(s.perVal, valAgg{})
	}
	for i := range c.Labels {
		m := &c.Meta[i]
		if !m.FreshPost {
			continue
		}
		a := &s.perVal[m.ValID]
		if !a.present {
			a.present = true
			a.official = m.Official
		}
		k := pairKey(m.URIID, m.ValID)
		if _, dup := s.seen[k]; !dup {
			s.seen[k] = struct{}{}
			a.objects++
		}
		a.rts = append(a.rts, m.RTSec)
	}
}

func (figure6Acc) Merge(dst, src Shard, mc *MergeCtx) {
	d, s := dst.(*figure6Shard), src.(*figure6Shard)
	for len(d.perVal) < mc.NumVals {
		d.perVal = append(d.perVal, valAgg{})
	}
	for vid := range s.perVal {
		sa := &s.perVal[vid]
		if !sa.present {
			continue
		}
		da := &d.perVal[mc.ValRemap[vid]]
		if !da.present {
			da.present = true
			da.official = sa.official
		}
		da.rts = append(da.rts, sa.rts...)
	}
	for k := range s.seen {
		gk := pairKey(mc.URIRemap[int32(k>>32)], mc.ValRemap[int32(k&0xffffffff)])
		if _, dup := d.seen[gk]; !dup {
			d.seen[gk] = struct{}{}
			d.perVal[mc.ValRemap[int32(k&0xffffffff)]].objects++
		}
	}
}

func (s *figure6Shard) valueRows(t *LabelTables) []ValueReaction {
	var out []ValueReaction
	for vid := range s.perVal {
		a := &s.perVal[vid]
		if !a.present {
			continue
		}
		sorted := append([]float64(nil), a.rts...)
		sort.Float64s(sorted)
		out = append(out, ValueReaction{
			Val: t.Vals[vid], Official: a.official, Objects: a.objects,
			Median: nearestRank(sorted, 0.5),
			Q1:     nearestRank(sorted, 0.25),
			Q3:     nearestRank(sorted, 0.75),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Objects > out[j].Objects })
	return out
}

func (figure6Acc) Render(_ *World, sh Shard, t *LabelTables) []*Report {
	return []*Report{renderFigure6(sh.(*figure6Shard).valueRows(t))}
}

// ---- shard-state codecs (the wire forms of DESIGN.md §9) ----
//
// Label shards carry interned ids, so their decoders validate every id
// against the partition state's own intern-table sizes (StateBounds):
// the level-two fold indexes MergeCtx remap slices by these ids, and a
// hostile or stale state must error at decode, not index out of range
// mid-fold.

type wirePairState struct {
	URI   int32 `cbor:"u"`
	Val   int32 `cbor:"v"`
	Src   int32 `cbor:"s,omitempty"`
	Multi bool  `cbor:"m,omitempty"`
}

type wireSection6 struct {
	AppliedSeen []bool          `cbor:"seen,omitempty"`
	FirstSrc    []int32         `cbor:"firstSrc,omitempty"`
	MultiSrc    []bool          `cbor:"multiSrc,omitempty"`
	Labeled     int64           `cbor:"labeled,omitempty"`
	Multi       int64           `cbor:"multi,omitempty"`
	Pairs       []wirePairState `cbor:"pairs,omitempty"`
}

func (section6Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*section6Shard)
	w := &wireSection6{
		AppliedSeen: trimBool(s.appliedSeen), FirstSrc: s.firstSrc, MultiSrc: s.multiSrc,
		Labeled: int64(s.labeled), Multi: int64(s.multi),
	}
	// Trim the unseen tail (canonical form: by-id lengths depend on the
	// merge pattern, not on state); the columns stay paired.
	n := len(w.FirstSrc)
	for n > 0 && w.FirstSrc[n-1] == unseenSrc {
		n--
	}
	w.FirstSrc, w.MultiSrc = w.FirstSrc[:n], w.MultiSrc[:n]
	for k, p := range s.pairs {
		w.Pairs = append(w.Pairs, wirePairState{
			URI: int32(k >> 32), Val: int32(k & 0xffffffff), Src: p.firstSrc, Multi: p.multi,
		})
	}
	sort.Slice(w.Pairs, func(i, j int) bool {
		if w.Pairs[i].URI != w.Pairs[j].URI {
			return w.Pairs[i].URI < w.Pairs[j].URI
		}
		return w.Pairs[i].Val < w.Pairs[j].Val
	})
	return marshalState(w)
}

func (section6Acc) UnmarshalShard(data []byte, b StateBounds) (Shard, error) {
	w, err := unmarshalState[wireSection6](data)
	if err != nil {
		return nil, err
	}
	if err := checkLen("applied-value", len(w.AppliedSeen), b.Vals); err != nil {
		return nil, err
	}
	if err := checkLen("first-src", len(w.FirstSrc), b.URIs); err != nil {
		return nil, err
	}
	if len(w.MultiSrc) != len(w.FirstSrc) {
		return nil, fmt.Errorf("multi-src column of %d rows against %d first-src rows", len(w.MultiSrc), len(w.FirstSrc))
	}
	for _, fs := range w.FirstSrc {
		if fs == unseenSrc {
			continue
		}
		if err := b.checkSrc(fs); err != nil {
			return nil, err
		}
	}
	s := &section6Shard{
		appliedSeen: w.AppliedSeen, firstSrc: w.FirstSrc, multiSrc: w.MultiSrc,
		labeled: int(w.Labeled), multi: int(w.Multi),
		pairs: make(map[int64]*pairState, len(w.Pairs)),
	}
	for _, p := range w.Pairs {
		if err := checkID("URI", p.URI, b.URIs); err != nil {
			return nil, err
		}
		if err := checkID("value", p.Val, b.Vals); err != nil {
			return nil, err
		}
		if err := b.checkSrc(p.Src); err != nil {
			return nil, err
		}
		s.pairs[pairKey(p.URI, p.Val)] = &pairState{firstSrc: p.Src, multi: p.Multi}
	}
	return s, nil
}

type wireTable3 struct {
	Counts []int64 `cbor:"counts,omitempty"`
}

func (table3Acc) MarshalShard(sh Shard) ([]byte, error) {
	return marshalState(&wireTable3{Counts: trimI64(sh.(*table3Shard).counts)})
}

func (table3Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireTable3](data)
	if err != nil {
		return nil, err
	}
	return &table3Shard{counts: w.Counts}, nil
}

type wireTable4 struct {
	KindMask []byte    `cbor:"mask,omitempty"`
	Objects  []int64   `cbor:"objects,omitempty"`
	Values   [][]int64 `cbor:"values,omitempty"`
}

func (table4Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*table4Shard)
	mask := s.kindMask
	for len(mask) > 0 && mask[len(mask)-1] == 0 {
		mask = mask[:len(mask)-1]
	}
	w := &wireTable4{KindMask: mask, Objects: s.objects[:], Values: make([][]int64, 4)}
	for k := range s.values {
		w.Values[k] = trimI64(s.values[k])
	}
	return marshalState(w)
}

func (table4Acc) UnmarshalShard(data []byte, b StateBounds) (Shard, error) {
	w, err := unmarshalState[wireTable4](data)
	if err != nil {
		return nil, err
	}
	if err := checkLen("kind-mask", len(w.KindMask), b.URIs); err != nil {
		return nil, err
	}
	if len(w.Objects) != 4 || len(w.Values) != 4 {
		return nil, fmt.Errorf("%d object and %d value rows, want 4 subject kinds", len(w.Objects), len(w.Values))
	}
	s := &table4Shard{kindMask: w.KindMask}
	for k := 0; k < 4; k++ {
		if err := checkLen("value-count", len(w.Values[k]), b.Vals); err != nil {
			return nil, err
		}
		s.objects[k] = w.Objects[k]
		s.values[k] = w.Values[k]
	}
	return s, nil
}

type wireMonth struct {
	Month     int32 `cbor:"m"`
	Bluesky   int64 `cbor:"b,omitempty"`
	Community int64 `cbor:"c,omitempty"`
}

type wireFigure4 struct {
	Months []wireMonth `cbor:"months,omitempty"`
}

func (figure4Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure4Shard)
	w := &wireFigure4{Months: make([]wireMonth, 0, len(s.byMonth))}
	for idx, b := range s.byMonth {
		w.Months = append(w.Months, wireMonth{Month: idx, Bluesky: int64(b[0]), Community: int64(b[1])})
	}
	sort.Slice(w.Months, func(i, j int) bool { return w.Months[i].Month < w.Months[j].Month })
	return marshalState(w)
}

func (figure4Acc) UnmarshalShard(data []byte, _ StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure4](data)
	if err != nil {
		return nil, err
	}
	s := &figure4Shard{byMonth: make(map[int32]*[2]int, len(w.Months))}
	for _, m := range w.Months {
		s.byMonth[m.Month] = &[2]int{int(m.Bluesky), int(m.Community)}
	}
	return s, nil
}

type wireLabAgg struct {
	Total  int64     `cbor:"t,omitempty"`
	Values []int64   `cbor:"v,omitempty"`
	RTs    []float64 `cbor:"rts,omitempty"`
}

type wireExtraAgg struct {
	ID  int32      `cbor:"id"`
	Agg wireLabAgg `cbor:"agg"`
}

type wireReaction struct {
	PerLab []wireLabAgg   `cbor:"perLab,omitempty"`
	Extra  []wireExtraAgg `cbor:"extra,omitempty"`
	Total  int64          `cbor:"total,omitempty"`
}

func labAggToWire(a *labAgg) wireLabAgg {
	return wireLabAgg{Total: int64(a.total), Values: trimI64(a.values), RTs: a.rts}
}

func labAggFromWire(w *wireLabAgg, b StateBounds) (labAgg, error) {
	if err := checkLen("value-count", len(w.Values), b.Vals); err != nil {
		return labAgg{}, err
	}
	return labAgg{total: int(w.Total), values: w.Values, rts: w.RTs}, nil
}

func (reactionAcc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*reactionShard)
	perLab := s.perLab
	for len(perLab) > 0 && perLab[len(perLab)-1].total == 0 {
		perLab = perLab[:len(perLab)-1]
	}
	w := &wireReaction{Total: s.total, PerLab: make([]wireLabAgg, 0, len(perLab))}
	for i := range perLab {
		w.PerLab = append(w.PerLab, labAggToWire(&perLab[i]))
	}
	for id, agg := range s.extra {
		w.Extra = append(w.Extra, wireExtraAgg{ID: id, Agg: labAggToWire(agg)})
	}
	sort.Slice(w.Extra, func(i, j int) bool { return w.Extra[i].ID > w.Extra[j].ID })
	return marshalState(w)
}

func (reactionAcc) UnmarshalShard(data []byte, b StateBounds) (Shard, error) {
	w, err := unmarshalState[wireReaction](data)
	if err != nil {
		return nil, err
	}
	// Per-labeler aggregates resolve their names through World.Labelers
	// at render; an aggregate beyond the announced population cannot
	// have arisen from a real traversal.
	if err := checkLen("per-labeler aggregate", len(w.PerLab), b.Labelers); err != nil {
		return nil, err
	}
	s := &reactionShard{total: w.Total, perLab: make([]labAgg, 0, len(w.PerLab))}
	for i := range w.PerLab {
		agg, err := labAggFromWire(&w.PerLab[i], b)
		if err != nil {
			return nil, err
		}
		s.perLab = append(s.perLab, agg)
	}
	for i := range w.Extra {
		id := w.Extra[i].ID
		// Extra aggregates resolve their DID through ExtraSrcs at render;
		// only strictly-negative in-table ids may appear here.
		if id >= -1 {
			return nil, fmt.Errorf("extra-source aggregate carries non-extra id %d", id)
		}
		if err := b.checkSrc(id); err != nil {
			return nil, err
		}
		agg, err := labAggFromWire(&w.Extra[i].Agg, b)
		if err != nil {
			return nil, err
		}
		if s.extra == nil {
			s.extra = make(map[int32]*labAgg, len(w.Extra))
		}
		cp := agg
		s.extra[id] = &cp
	}
	return s, nil
}

type wireValAgg struct {
	Present  bool      `cbor:"p,omitempty"`
	Official bool      `cbor:"o,omitempty"`
	Objects  int64     `cbor:"n,omitempty"`
	RTs      []float64 `cbor:"rts,omitempty"`
}

type wireFigure6 struct {
	PerVal []wireValAgg    `cbor:"perVal,omitempty"`
	Seen   []wirePairState `cbor:"seen,omitempty"`
}

func (figure6Acc) MarshalShard(sh Shard) ([]byte, error) {
	s := sh.(*figure6Shard)
	perVal := s.perVal
	for n := len(perVal); n > 0; n-- {
		if a := &perVal[n-1]; a.present || a.objects != 0 || len(a.rts) != 0 {
			break
		}
		perVal = perVal[:n-1]
	}
	w := &wireFigure6{PerVal: make([]wireValAgg, 0, len(perVal))}
	for i := range perVal {
		a := &perVal[i]
		w.PerVal = append(w.PerVal, wireValAgg{Present: a.present, Official: a.official, Objects: int64(a.objects), RTs: a.rts})
	}
	for k := range s.seen {
		w.Seen = append(w.Seen, wirePairState{URI: int32(k >> 32), Val: int32(k & 0xffffffff)})
	}
	sort.Slice(w.Seen, func(i, j int) bool {
		if w.Seen[i].URI != w.Seen[j].URI {
			return w.Seen[i].URI < w.Seen[j].URI
		}
		return w.Seen[i].Val < w.Seen[j].Val
	})
	return marshalState(w)
}

func (figure6Acc) UnmarshalShard(data []byte, b StateBounds) (Shard, error) {
	w, err := unmarshalState[wireFigure6](data)
	if err != nil {
		return nil, err
	}
	if err := checkLen("per-value aggregate", len(w.PerVal), b.Vals); err != nil {
		return nil, err
	}
	s := &figure6Shard{
		perVal: make([]valAgg, 0, len(w.PerVal)),
		seen:   make(map[int64]struct{}, len(w.Seen)),
	}
	for i := range w.PerVal {
		a := &w.PerVal[i]
		s.perVal = append(s.perVal, valAgg{present: a.Present, official: a.Official, objects: int(a.Objects), rts: a.RTs})
	}
	for _, p := range w.Seen {
		if err := checkID("URI", p.URI, b.URIs); err != nil {
			return nil, err
		}
		if err := checkID("value", p.Val, b.Vals); err != nil {
			return nil, err
		}
		s.seen[pairKey(p.URI, p.Val)] = struct{}{}
	}
	return s, nil
}
