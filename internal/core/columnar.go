package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// This file implements the columnar block encoding (DESIGN.md §11),
// the payload of every disk frame, #sim.block event and MarshalBlock
// call. A RecordBlock travels as per-column arrays rather than rows:
//
//	byte    codec tag (blockCodecColumnar3)
//	uvarint dictionary entry count; when non-zero, the dictionary:
//	        uvarint total bytes, per-entry uvarint lengths, bytes
//	        (id = position, assigned in first-use order)
//	byte    header presence (0 or 1), then the header scalars
//	per collection: uvarint row count, then whole columns in
//	    struct-field order
//
// Column encodings:
//
//   - low-cardinality strings (PDS labels, langs, label vals/srcs,
//     platforms, registrars …) are dictionary ids — the same interning
//     discipline as the engine's URI/Val/Src tables, applied on the
//     wire: each distinct string is decoded exactly once per block;
//   - unique strings (DIDs, URIs, handles, names) are block-coded: one
//     uvarint total, the per-row lengths, then all bytes concatenated.
//     The decoder performs one string conversion per column and slices
//     row values out of it, so decode pays no allocation per row;
//   - timestamps and index-like ints (CreatedAt, Applied, AuthorIdx,
//     CreatorIdx …) are fixed-width 8-byte little-endian deltas against
//     the previous row, bulk-loaded without per-row varint branching.
//     Generated corpora are time-sorted, so the deltas are small and
//     compress well;
//   - other ints are zigzag varints, booleans pack 8-per-byte into
//     bitsets, float64s are raw big-endian bits.
//
// A frame may additionally carry the blockCodecLZ bit (see lz.go and
// diskstore.go): tag|0x40, uvarint raw length, LZ stream.
//
// Determinism: dictionary ids are assigned in first-use order and map
// columns (ActiveByLang) sort their keys, so encoding is a pure
// function of the block — byte-identical across runs, which the
// content-hash cache keys and spill goldens rely on.
//
// Hostile-input discipline mirrors the cbor decoder: every count is
// bounded by the bytes that remain (a row/entry always costs at least
// its per-row floor), dictionary ids are range-checked, and the
// decoder fails loudly on trailing bytes — a lying count can never
// force a large allocation or a panic.
//
// Decode can also surface the block's dictionary view (DictBlock) so
// analysis can fold the dictionary into its intern tables once per
// block instead of re-hashing every row — see PartitionReader.NextDict
// and streamIngest.applyColumnar.

// DictBlock is the dictionary view of a decoded columnar block: the
// first-use-ordered string dictionary plus, for the collections that
// feed the engine's intern tables, the raw per-row dictionary ids.
// Ids index Dict and are only meaningful alongside the RecordBlock
// decoded from the same frame (columns are parallel to its slices).
//
//wire:v3 fields=4
type DictBlock struct {
	Dict []string

	// Per-label dictionary ids, parallel to RecordBlock.Labels.
	LabelSrc  []uint32
	LabelVal  []uint32
	LabelKind []uint32
}

// colEnc accumulates the column body and the string dictionary.
type colEnc struct {
	body []byte
	ids  map[string]uint64
	dict []string
}

func (e *colEnc) uv(v uint64) { e.body = binary.AppendUvarint(e.body, v) }
func (e *colEnc) sv(v int64)  { e.body = binary.AppendVarint(e.body, v) }

// dictStr writes s as a dictionary id, interning on first use.
func (e *colEnc) dictStr(s string) {
	id, ok := e.ids[s]
	if !ok {
		id = uint64(len(e.dict))
		e.ids[s] = id
		e.dict = append(e.dict, s)
	}
	e.uv(id)
}

func (e *colEnc) f64(v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	e.body = append(e.body, b[:]...)
}

// bits packs a bool column into a bitset, 8 rows per byte, LSB first.
func (e *colEnc) bits(n int, at func(int) bool) {
	for base := 0; base < n; base += 8 {
		var bb byte
		for j := 0; j < 8 && base+j < n; j++ {
			if at(base + j) {
				bb |= 1 << uint(j)
			}
		}
		e.body = append(e.body, bb)
	}
}

// strs writes a block-coded string column: total, lengths, bytes.
func (e *colEnc) strs(n int, at func(int) string) {
	total := 0
	for i := 0; i < n; i++ {
		total += len(at(i))
	}
	e.uv(uint64(total))
	for i := 0; i < n; i++ {
		e.uv(uint64(len(at(i))))
	}
	for i := 0; i < n; i++ {
		e.body = append(e.body, at(i)...)
	}
}

// fixed writes an int64 column as 8-byte little-endian deltas.
func (e *colEnc) fixed(n int, at func(int) int64) {
	var prev int64
	for i := 0; i < n; i++ {
		v := at(i)
		e.body = binary.LittleEndian.AppendUint64(e.body, uint64(v-prev))
		prev = v
	}
}

func (e *colEnc) ftimes(n int, at func(int) time.Time) {
	e.fixed(n, func(i int) int64 { return nsOf(at(i)) })
}

// encodeBlock encodes b as a tagged columnar payload.
func encodeBlock(b *RecordBlock) []byte {
	e := &colEnc{ids: make(map[string]uint64, 64)}
	e.header(b.Header)
	e.labelers(b.Labelers)
	e.users(b.Users)
	e.posts(b.Posts)
	e.days(b.Days)
	e.labels(b.Labels)
	e.feedGens(b.FeedGens)
	e.domains(b.Domains)
	e.handleUpdates(b.HandleUpdates)

	dictBytes := 0
	for _, s := range e.dict {
		dictBytes += binary.MaxVarintLen64 + len(s)
	}
	out := make([]byte, 0, 1+2*binary.MaxVarintLen64+dictBytes+len(e.body))
	out = append(out, blockCodecColumnar3)
	out = binary.AppendUvarint(out, uint64(len(e.dict)))
	if len(e.dict) > 0 {
		total := 0
		for _, s := range e.dict {
			total += len(s)
		}
		out = binary.AppendUvarint(out, uint64(total))
		for _, s := range e.dict {
			out = binary.AppendUvarint(out, uint64(len(s)))
		}
		for _, s := range e.dict {
			out = append(out, s...)
		}
	}
	return append(out, e.body...)
}

func (e *colEnc) header(h *StreamHeader) {
	if h == nil {
		e.body = append(e.body, 0)
		return
	}
	e.body = append(e.body, 1)
	e.sv(int64(h.Scale))
	e.sv(nsOf(h.WindowStart))
	e.sv(nsOf(h.WindowEnd))
	e.sv(h.Firehose.Commits)
	e.sv(h.Firehose.Identity)
	e.sv(h.Firehose.Handle)
	e.sv(h.Firehose.Tombstone)
	e.sv(h.NonBskyEvents)
}

func (e *colEnc) labelers(ls []Labeler) {
	e.uv(uint64(len(ls)))
	if len(ls) == 0 {
		return
	}
	n := len(ls)
	e.strs(n, func(i int) string { return ls[i].DID })
	e.strs(n, func(i int) string { return ls[i].Name })
	e.bits(n, func(i int) bool { return ls[i].Official })
	for i := range ls {
		e.uv(uint64(len(ls[i].Values)))
		for _, v := range ls[i].Values {
			e.dictStr(v)
		}
	}
	e.ftimes(n, func(i int) time.Time { return ls[i].Announced })
	e.bits(n, func(i int) bool { return ls[i].Functional })
	e.bits(n, func(i int) bool { return ls[i].Active })
	for i := range ls {
		e.dictStr(ls[i].Hosting)
	}
	e.bits(n, func(i int) bool { return ls[i].Automated })
	for i := range ls {
		e.sv(int64(ls[i].Likes))
	}
	e.strs(n, func(i int) string { return ls[i].Operator })
	e.strs(n, func(i int) string { return ls[i].About })
}

func (e *colEnc) users(us []User) {
	e.uv(uint64(len(us)))
	if len(us) == 0 {
		return
	}
	n := len(us)
	e.strs(n, func(i int) string { return us[i].DID })
	e.strs(n, func(i int) string { return us[i].Handle })
	for i := range us {
		e.dictStr(us[i].DIDMethod)
	}
	for i := range us {
		e.dictStr(us[i].PDS)
	}
	for i := range us {
		e.dictStr(string(us[i].Proof))
	}
	e.ftimes(n, func(i int) time.Time { return us[i].CreatedAt })
	for i := range us {
		e.dictStr(us[i].Lang)
	}
	for i := range us {
		e.sv(int64(us[i].Followers))
	}
	for i := range us {
		e.sv(int64(us[i].Following))
	}
	for i := range us {
		e.sv(int64(us[i].Posts))
	}
	for i := range us {
		e.sv(int64(us[i].Likes))
	}
	for i := range us {
		e.sv(int64(us[i].Reposts))
	}
	for i := range us {
		e.sv(int64(us[i].Blocks))
	}
	e.bits(n, func(i int) bool { return us[i].Deleted })
}

func (e *colEnc) posts(ps []Post) {
	e.uv(uint64(len(ps)))
	if len(ps) == 0 {
		return
	}
	n := len(ps)
	e.strs(n, func(i int) string { return ps[i].URI })
	e.fixed(n, func(i int) int64 { return int64(ps[i].AuthorIdx) })
	for i := range ps {
		e.dictStr(ps[i].Lang)
	}
	e.ftimes(n, func(i int) time.Time { return ps[i].CreatedAt })
	for i := range ps {
		e.sv(int64(ps[i].Likes))
	}
	for i := range ps {
		e.sv(int64(ps[i].Reposts))
	}
	e.bits(n, func(i int) bool { return ps[i].HasMedia })
	e.bits(n, func(i int) bool { return ps[i].AltText })
}

func (e *colEnc) days(ds []DayActivity) {
	e.uv(uint64(len(ds)))
	if len(ds) == 0 {
		return
	}
	n := len(ds)
	e.ftimes(n, func(i int) time.Time { return ds[i].Date })
	for i := range ds {
		e.sv(int64(ds[i].ActiveUsers))
	}
	for i := range ds {
		e.sv(int64(ds[i].Posts))
	}
	for i := range ds {
		e.sv(int64(ds[i].Likes))
	}
	for i := range ds {
		e.sv(int64(ds[i].Reposts))
	}
	for i := range ds {
		e.sv(int64(ds[i].Follows))
	}
	for i := range ds {
		e.sv(int64(ds[i].Blocks))
	}
	for i := range ds {
		e.langMap(ds[i].ActiveByLang)
	}
}

// langMap writes an ActiveByLang map column entry: count, then
// key-sorted (dict id, svarint) pairs.
func (e *colEnc) langMap(m map[string]int) {
	e.uv(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.dictStr(k)
		e.sv(int64(m[k]))
	}
}

func (e *colEnc) labels(ls []Label) {
	e.uv(uint64(len(ls)))
	if len(ls) == 0 {
		return
	}
	n := len(ls)
	for i := range ls {
		e.dictStr(ls[i].Src)
	}
	e.strs(n, func(i int) string { return ls[i].URI })
	for i := range ls {
		e.dictStr(ls[i].Val)
	}
	e.bits(n, func(i int) bool { return ls[i].Neg })
	for i := range ls {
		e.dictStr(string(ls[i].Kind))
	}
	e.ftimes(n, func(i int) time.Time { return ls[i].Applied })
	e.ftimes(n, func(i int) time.Time { return ls[i].SubjectCreated })
	e.bits(n, func(i int) bool { return ls[i].FreshSubject })
}

func (e *colEnc) feedGens(fs []FeedGen) {
	e.uv(uint64(len(fs)))
	if len(fs) == 0 {
		return
	}
	n := len(fs)
	e.strs(n, func(i int) string { return fs[i].URI })
	e.fixed(n, func(i int) int64 { return int64(fs[i].CreatorIdx) })
	for i := range fs {
		e.dictStr(fs[i].Platform)
	}
	e.strs(n, func(i int) string { return fs[i].DisplayName })
	e.strs(n, func(i int) string { return fs[i].Description })
	for i := range fs {
		e.dictStr(fs[i].Lang)
	}
	e.ftimes(n, func(i int) time.Time { return fs[i].CreatedAt })
	for i := range fs {
		e.sv(int64(fs[i].Likes))
	}
	for i := range fs {
		e.sv(int64(fs[i].Posts))
	}
	e.ftimes(n, func(i int) time.Time { return fs[i].LastPost })
	e.bits(n, func(i int) bool { return fs[i].Reachable })
	e.bits(n, func(i int) bool { return fs[i].Personalized })
	for i := range fs {
		e.f64(fs[i].LabeledShare)
	}
	for i := range fs {
		e.dictStr(fs[i].TopLabel)
	}
}

func (e *colEnc) domains(ds []Domain) {
	e.uv(uint64(len(ds)))
	if len(ds) == 0 {
		return
	}
	n := len(ds)
	e.strs(n, func(i int) string { return ds[i].Name })
	for i := range ds {
		e.sv(int64(ds[i].IANAID))
	}
	for i := range ds {
		e.dictStr(ds[i].RegistrarName)
	}
	e.bits(n, func(i int) bool { return ds[i].CCTLD })
	for i := range ds {
		e.sv(int64(ds[i].TrancoRank))
	}
	for i := range ds {
		e.sv(int64(ds[i].Subdomains))
	}
}

func (e *colEnc) handleUpdates(hs []HandleUpdate) {
	e.uv(uint64(len(hs)))
	if len(hs) == 0 {
		return
	}
	n := len(hs)
	e.strs(n, func(i int) string { return hs[i].DID })
	e.strs(n, func(i int) string { return hs[i].NewHandle })
	e.ftimes(n, func(i int) time.Time { return hs[i].Time })
}

// Per-row byte floors for count bounding: a valid row always costs at
// least one byte per varint/string column (plus the fixed float bytes),
// so count ≤ remaining/floor. Bitset bytes are excluded — the floor
// only needs to be a lower bound.
const (
	minRowLabeler      = 8
	minRowUser         = 13
	minRowPost         = 6
	minRowDay          = 8
	minRowLabel        = 6
	minRowFeedGen      = 20 // 12 varint/string columns + 8 raw float bytes
	minRowDomain       = 5
	minRowHandleUpdate = 3
	minDictEntry       = 1
	minMapEntry        = 2
)

// colDec decodes a columnar payload with a sticky error: after the
// first failure every read returns a zero value and the final error is
// surfaced once, so per-column loops never need inline error plumbing.
type colDec struct {
	data []byte
	pos  int
	dict []string
	db   *DictBlock // optional dictionary-view capture (NextDict path)
	err  error
	lens []uint32 // scratch for strs, reused across columns
}

func (d *colDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: columnar block: "+format, args...)
	}
}

func (d *colDec) remaining() int { return len(d.data) - d.pos }

func (d *colDec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *colDec) sv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count reads a row/entry count and bounds it by the bytes remaining:
// every counted item costs at least minBytes, so a count the input
// cannot back is corruption, detected before any allocation.
func (d *colDec) count(minBytes int) int {
	v := d.uv()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining())/uint64(minBytes) {
		d.fail("count %d exceeds the %d bytes remaining", v, d.remaining())
		return 0
	}
	return int(v)
}

// take consumes n raw bytes.
func (d *colDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.remaining() {
		d.fail("need %d bytes at offset %d, have %d", n, d.pos, d.remaining())
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *colDec) dictStr() string {
	id := d.uv()
	if d.err != nil {
		return ""
	}
	if id >= uint64(len(d.dict)) {
		d.fail("dictionary id %d out of range (%d entries)", id, len(d.dict))
		return ""
	}
	return d.dict[id]
}

// dictIDs reads an n-row dictionary-id column, range-checking every id.
// Keeping the raw ids around (not just the resolved strings) is what
// lets NextDict hand analysis a DictBlock view for intern-table fusion.
func (d *colDec) dictIDs(n int) []uint32 {
	if d.err != nil || n == 0 {
		return nil
	}
	ids := make([]uint32, n)
	for i := range ids {
		id := d.uv()
		if d.err != nil {
			return nil
		}
		if id >= uint64(len(d.dict)) {
			d.fail("dictionary id %d out of range (%d entries)", id, len(d.dict))
			return nil
		}
		ids[i] = uint32(id)
	}
	return ids
}

// dictAt resolves ids[i] against the dictionary; safe after a decode
// failure (dictIDs returns nil then).
func (d *colDec) dictAt(ids []uint32, i int) string {
	if ids == nil {
		return ""
	}
	return d.dict[ids[i]]
}

func (d *colDec) f64() float64 {
	b := d.take(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// bitset reads back a bool column; get stays in bounds even after a
// decode failure (a zero-filled set is substituted).
type bitset []byte

func (bs bitset) get(i int) bool { return bs[i>>3]&(1<<uint(i&7)) != 0 }

func (d *colDec) bits(n int) bitset {
	nb := (n + 7) / 8
	b := d.take(nb)
	if b == nil {
		return make(bitset, nb)
	}
	return bitset(b)
}

// strs decodes a block-coded string column with one string conversion;
// row values are substrings of that single backing allocation.
func (d *colDec) strs(n int) []string {
	if d.err != nil || n == 0 {
		return nil
	}
	total := d.uv()
	if d.err != nil {
		return nil
	}
	if total > uint64(d.remaining()) {
		d.fail("string column of %d bytes exceeds the %d remaining", total, d.remaining())
		return nil
	}
	if cap(d.lens) < n {
		d.lens = make([]uint32, n)
	}
	lens := d.lens[:n]
	var sum uint64
	for i := range lens {
		l := d.uv()
		if d.err != nil {
			return nil
		}
		if l > total-sum {
			d.fail("string column lengths exceed declared %d bytes", total)
			return nil
		}
		lens[i] = uint32(l)
		sum += l
	}
	if sum != total {
		d.fail("string column lengths sum to %d, declared %d", sum, total)
		return nil
	}
	raw := string(d.take(int(total)))
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	off := 0
	for i := range out {
		end := off + int(lens[i])
		out[i] = raw[off:end]
		off = end
	}
	return out
}

// fixed returns the raw bytes of an n-row fixed-width delta column;
// nil after a decode failure. Callers prefix-sum inline.
func (d *colDec) fixed(n int) []byte {
	if n > (maxBlockBytes-8)/8 {
		d.fail("fixed column of %d rows out of range", n)
		return nil
	}
	return d.take(8 * n)
}

// decodeBlock decodes a columnar payload (tag byte already
// stripped). When db is non-nil the dictionary view is captured into it.
func decodeBlock(data []byte, db *DictBlock) (*RecordBlock, error) {
	d := &colDec{data: data, db: db}
	if n := d.count(minDictEntry); n > 0 {
		d.dict = d.strs(n)
	}
	b := &RecordBlock{}
	b.Header = d.header()
	b.Labelers = d.labelersCol()
	b.Users = d.usersCol()
	b.Posts = d.postsCol()
	b.Days = d.daysCol()
	b.Labels = d.labelsCol()
	b.FeedGens = d.feedGensCol()
	b.Domains = d.domainsCol()
	b.HandleUpdates = d.handleUpdatesCol()
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, errTrailing(len(d.data) - d.pos)
	}
	if db != nil {
		db.Dict = d.dict
	}
	return b, nil
}

func errTrailing(n int) error {
	return fmt.Errorf("core: columnar block: %d trailing bytes", n)
}

func (d *colDec) header() *StreamHeader {
	p := d.take(1)
	if d.err != nil || p[0] == 0 {
		return nil
	}
	if p[0] != 1 {
		d.fail("header presence byte %#x", p[0])
		return nil
	}
	h := &StreamHeader{}
	h.Scale = int(d.sv())
	h.WindowStart = timeOf(d.sv())
	h.WindowEnd = timeOf(d.sv())
	h.Firehose.Commits = d.sv()
	h.Firehose.Identity = d.sv()
	h.Firehose.Handle = d.sv()
	h.Firehose.Tombstone = d.sv()
	h.NonBskyEvents = d.sv()
	return h
}

func (d *colDec) labelersCol() []Labeler {
	n := d.count(minRowLabeler)
	if n == 0 {
		return nil
	}
	ls := make([]Labeler, n)
	for i, s := range d.strs(n) {
		ls[i].DID = s
	}
	for i, s := range d.strs(n) {
		ls[i].Name = s
	}
	bs := d.bits(n)
	for i := range ls {
		ls[i].Official = bs.get(i)
	}
	for i := range ls {
		if vn := d.count(1); vn > 0 {
			ls[i].Values = make([]string, vn)
			for j := range ls[i].Values {
				ls[i].Values[j] = d.dictStr()
			}
		}
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range ls {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			ls[i].Announced = timeOf(prev)
		}
	}
	bs = d.bits(n)
	for i := range ls {
		ls[i].Functional = bs.get(i)
	}
	bs = d.bits(n)
	for i := range ls {
		ls[i].Active = bs.get(i)
	}
	for i := range ls {
		ls[i].Hosting = d.dictStr()
	}
	bs = d.bits(n)
	for i := range ls {
		ls[i].Automated = bs.get(i)
	}
	for i := range ls {
		ls[i].Likes = int(d.sv())
	}
	for i, s := range d.strs(n) {
		ls[i].Operator = s
	}
	for i, s := range d.strs(n) {
		ls[i].About = s
	}
	return ls
}

func (d *colDec) usersCol() []User {
	n := d.count(minRowUser)
	if n == 0 {
		return nil
	}
	us := make([]User, n)
	for i, s := range d.strs(n) {
		us[i].DID = s
	}
	for i, s := range d.strs(n) {
		us[i].Handle = s
	}
	for i := range us {
		us[i].DIDMethod = d.dictStr()
	}
	for i := range us {
		us[i].PDS = d.dictStr()
	}
	for i := range us {
		us[i].Proof = ProofMethod(d.dictStr())
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range us {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			us[i].CreatedAt = timeOf(prev)
		}
	}
	for i := range us {
		us[i].Lang = d.dictStr()
	}
	for i := range us {
		us[i].Followers = int(d.sv())
	}
	for i := range us {
		us[i].Following = int(d.sv())
	}
	for i := range us {
		us[i].Posts = int(d.sv())
	}
	for i := range us {
		us[i].Likes = int(d.sv())
	}
	for i := range us {
		us[i].Reposts = int(d.sv())
	}
	for i := range us {
		us[i].Blocks = int(d.sv())
	}
	bs := d.bits(n)
	for i := range us {
		us[i].Deleted = bs.get(i)
	}
	return us
}

func (d *colDec) postsCol() []Post {
	n := d.count(minRowPost)
	if n == 0 {
		return nil
	}
	ps := make([]Post, n)
	for i, s := range d.strs(n) {
		ps[i].URI = s
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range ps {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			ps[i].AuthorIdx = int(prev)
		}
	}
	for i := range ps {
		ps[i].Lang = d.dictStr()
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range ps {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			ps[i].CreatedAt = timeOf(prev)
		}
	}
	for i := range ps {
		ps[i].Likes = int(d.sv())
	}
	for i := range ps {
		ps[i].Reposts = int(d.sv())
	}
	bs := d.bits(n)
	for i := range ps {
		ps[i].HasMedia = bs.get(i)
	}
	bs = d.bits(n)
	for i := range ps {
		ps[i].AltText = bs.get(i)
	}
	return ps
}

func (d *colDec) daysCol() []DayActivity {
	n := d.count(minRowDay)
	if n == 0 {
		return nil
	}
	ds := make([]DayActivity, n)
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range ds {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			ds[i].Date = timeOf(prev)
		}
	}
	for i := range ds {
		ds[i].ActiveUsers = int(d.sv())
	}
	for i := range ds {
		ds[i].Posts = int(d.sv())
	}
	for i := range ds {
		ds[i].Likes = int(d.sv())
	}
	for i := range ds {
		ds[i].Reposts = int(d.sv())
	}
	for i := range ds {
		ds[i].Follows = int(d.sv())
	}
	for i := range ds {
		ds[i].Blocks = int(d.sv())
	}
	for i := range ds {
		ds[i].ActiveByLang = d.langMap()
		if d.err != nil {
			return nil
		}
	}
	return ds
}

// langMap reads back one ActiveByLang map column entry.
func (d *colDec) langMap() map[string]int {
	cnt := d.count(minMapEntry)
	if cnt == 0 {
		return nil
	}
	m := make(map[string]int, cnt)
	for j := 0; j < cnt; j++ {
		k := d.dictStr()
		m[k] = int(d.sv())
	}
	if d.err != nil {
		return nil
	}
	return m
}

func (d *colDec) labelsCol() []Label {
	n := d.count(minRowLabel)
	if n == 0 {
		return nil
	}
	ls := make([]Label, n)
	src := d.dictIDs(n)
	for i := range ls {
		ls[i].Src = d.dictAt(src, i)
	}
	for i, s := range d.strs(n) {
		ls[i].URI = s
	}
	val := d.dictIDs(n)
	for i := range ls {
		ls[i].Val = d.dictAt(val, i)
	}
	bs := d.bits(n)
	for i := range ls {
		ls[i].Neg = bs.get(i)
	}
	kind := d.dictIDs(n)
	for i := range ls {
		ls[i].Kind = SubjectKind(d.dictAt(kind, i))
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range ls {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			ls[i].Applied = timeOf(prev)
		}
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range ls {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			ls[i].SubjectCreated = timeOf(prev)
		}
	}
	bs = d.bits(n)
	for i := range ls {
		ls[i].FreshSubject = bs.get(i)
	}
	if d.db != nil && d.err == nil {
		d.db.LabelSrc = src
		d.db.LabelVal = val
		d.db.LabelKind = kind
	}
	return ls
}

func (d *colDec) feedGensCol() []FeedGen {
	n := d.count(minRowFeedGen)
	if n == 0 {
		return nil
	}
	fs := make([]FeedGen, n)
	for i, s := range d.strs(n) {
		fs[i].URI = s
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range fs {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			fs[i].CreatorIdx = int(prev)
		}
	}
	for i := range fs {
		fs[i].Platform = d.dictStr()
	}
	for i, s := range d.strs(n) {
		fs[i].DisplayName = s
	}
	for i, s := range d.strs(n) {
		fs[i].Description = s
	}
	for i := range fs {
		fs[i].Lang = d.dictStr()
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range fs {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			fs[i].CreatedAt = timeOf(prev)
		}
	}
	for i := range fs {
		fs[i].Likes = int(d.sv())
	}
	for i := range fs {
		fs[i].Posts = int(d.sv())
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range fs {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			fs[i].LastPost = timeOf(prev)
		}
	}
	bs := d.bits(n)
	for i := range fs {
		fs[i].Reachable = bs.get(i)
	}
	bs = d.bits(n)
	for i := range fs {
		fs[i].Personalized = bs.get(i)
	}
	for i := range fs {
		fs[i].LabeledShare = d.f64()
	}
	for i := range fs {
		fs[i].TopLabel = d.dictStr()
	}
	return fs
}

func (d *colDec) domainsCol() []Domain {
	n := d.count(minRowDomain)
	if n == 0 {
		return nil
	}
	ds := make([]Domain, n)
	for i, s := range d.strs(n) {
		ds[i].Name = s
	}
	for i := range ds {
		ds[i].IANAID = int(d.sv())
	}
	for i := range ds {
		ds[i].RegistrarName = d.dictStr()
	}
	bs := d.bits(n)
	for i := range ds {
		ds[i].CCTLD = bs.get(i)
	}
	for i := range ds {
		ds[i].TrancoRank = int(d.sv())
	}
	for i := range ds {
		ds[i].Subdomains = int(d.sv())
	}
	return ds
}

func (d *colDec) handleUpdatesCol() []HandleUpdate {
	n := d.count(minRowHandleUpdate)
	if n == 0 {
		return nil
	}
	hs := make([]HandleUpdate, n)
	for i, s := range d.strs(n) {
		hs[i].DID = s
	}
	for i, s := range d.strs(n) {
		hs[i].NewHandle = s
	}
	if fb := d.fixed(n); fb != nil {
		var prev int64
		for i := range hs {
			prev += int64(binary.LittleEndian.Uint64(fb[8*i:]))
			hs[i].Time = timeOf(prev)
		}
	}
	return hs
}
