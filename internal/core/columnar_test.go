package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// columnarTestBlock builds one RecordBlock exercising every collection
// and field class the columnar codec carries, including the header.
func columnarTestBlock() *RecordBlock {
	ds := diskTestDataset()
	return &RecordBlock{
		Header: &StreamHeader{
			Scale:         ds.Scale,
			WindowStart:   ds.WindowStart,
			WindowEnd:     ds.WindowEnd,
			Firehose:      ds.Firehose,
			NonBskyEvents: ds.NonBskyEvents,
		},
		Labelers:      ds.Labelers,
		Users:         ds.Users,
		Posts:         ds.Posts,
		Days:          ds.Daily,
		Labels:        ds.Labels,
		FeedGens:      ds.FeedGens,
		Domains:       ds.Domains,
		HandleUpdates: ds.HandleUpdates,
	}
}

// TestColumnarV3RoundTrip pins the lossless contract of the columnar
// codec at the single-block level, including the degenerate blocks the
// disk writer emits.
func TestColumnarV3RoundTrip(t *testing.T) {
	full := columnarTestBlock()
	blocks := []*RecordBlock{
		full,
		{},
		{Header: full.Header, Labelers: full.Labelers},
		{Users: full.Users},
		{Posts: full.Posts},
		{Days: full.Days},
		{Labels: full.Labels},
		{FeedGens: full.FeedGens},
		{Domains: full.Domains},
		{HandleUpdates: full.HandleUpdates},
	}
	for i, b := range blocks {
		enc, err := MarshalBlock(b)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		got, err := UnmarshalBlock(enc)
		if err != nil {
			t.Fatalf("block %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Errorf("block %d drifted through the columnar codec:\n got %+v\nwant %+v", i, got, b)
		}
	}
}

// TestUnmarshalBlockDispatch pins the codec-tag dispatch: plain and
// LZ-compressed v3 payloads decode; empty input, unknown tags and the
// tags of the retired v1/v2 block formats fail loudly.
func TestUnmarshalBlockDispatch(t *testing.T) {
	b := columnarTestBlock()
	enc, err := MarshalBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	comp := lzCompress(enc[1:])
	if comp == nil {
		t.Fatal("test block does not LZ-compress")
	}
	lz := append([]byte{enc[0] | blockCodecLZ}, binary.AppendUvarint(nil, uint64(len(enc)-1))...)
	lz = append(lz, comp...)
	for name, payload := range map[string][]byte{"v3": enc, "LZ v3": lz} {
		got, err := UnmarshalBlock(payload)
		if err != nil {
			t.Fatalf("%s payload: %v", name, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Errorf("%s payload: decoded block drifted", name)
		}
	}
	v1 := v1FixtureFrame(t)
	for name, enc := range map[string][]byte{
		"empty":            nil,
		"unknown tag":      {0x7f, 0x00},
		"bare v1 CBOR":     v1,
		"tagged v1 CBOR":   append([]byte{0x01}, v1...),
		"v2 columnar":      {0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"LZ bit on v2 tag": {0x02 | blockCodecLZ, 0},
	} {
		if _, err := UnmarshalBlock(enc); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
}

// TestColumnarV3Determinism pins byte-identical encoding across calls —
// content-hash cache keys and spill goldens stand on it.
func TestColumnarV3Determinism(t *testing.T) {
	b := columnarTestBlock()
	first := encodeBlock(b)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(first, encodeBlock(b)) {
			t.Fatalf("encoding of the same block drifted on call %d", i)
		}
	}
}

// TestColumnarV3DictView pins the DictBlock contract: the captured
// label id columns resolve through the captured dictionary to exactly
// the decoded label strings.
func TestColumnarV3DictView(t *testing.T) {
	enc, err := MarshalBlock(columnarTestBlock())
	if err != nil {
		t.Fatal(err)
	}
	b, db, err := UnmarshalBlockDict(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	if db == nil || len(db.Dict) == 0 {
		t.Fatal("no dictionary view")
	}
	if len(db.LabelSrc) != len(b.Labels) || len(db.LabelVal) != len(b.Labels) || len(db.LabelKind) != len(b.Labels) {
		t.Fatalf("label id columns not parallel to labels (%d/%d/%d ids, %d labels)",
			len(db.LabelSrc), len(db.LabelVal), len(db.LabelKind), len(b.Labels))
	}
	for i := range b.Labels {
		if db.Dict[db.LabelSrc[i]] != b.Labels[i].Src {
			t.Fatalf("label %d src id %d resolves to %q, want %q", i, db.LabelSrc[i], db.Dict[db.LabelSrc[i]], b.Labels[i].Src)
		}
		if db.Dict[db.LabelVal[i]] != b.Labels[i].Val {
			t.Fatalf("label %d val id mismatch", i)
		}
		if db.Dict[db.LabelKind[i]] != string(b.Labels[i].Kind) {
			t.Fatalf("label %d kind id mismatch", i)
		}
	}
}

// TestColumnarV3HostileBytes fuzzes the columnar decoder with truncations,
// bit flips, and garbage — every outcome must be an error or a decoded
// block, never a panic or a runaway allocation.
func TestColumnarV3HostileBytes(t *testing.T) {
	valid := encodeBlock(columnarTestBlock())[1:]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		var mut []byte
		switch i % 3 {
		case 0:
			mut = append([]byte(nil), valid...)
			for j := 0; j < 1+rng.Intn(8); j++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
		case 1:
			mut = valid[:rng.Intn(len(valid))]
		case 2:
			mut = make([]byte, rng.Intn(256))
			rng.Read(mut)
		}
		_, _ = decodeBlock(mut, nil)
	}
}

// TestLZRoundTrip pins the LZ codec: compressible input round-trips
// exactly, incompressible input is declined, and compression is
// deterministic.
func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]byte{
		bytes.Repeat([]byte("abcd"), 1000),
		bytes.Repeat([]byte{0}, 500),
		[]byte("at://did:plc:aaaa/app.bsky.feed.post/1at://did:plc:aaaa/app.bsky.feed.post/2"),
		encodeBlock(columnarTestBlock()),
	}
	long := make([]byte, 200000)
	for i := range long {
		long[i] = byte(rng.Intn(4)) // low-entropy, long matches
	}
	cases = append(cases, long)
	for i, src := range cases {
		comp := lzCompress(src)
		if comp == nil {
			t.Fatalf("case %d: compressible input declined", i)
		}
		if len(comp) >= len(src) {
			t.Fatalf("case %d: output %d not smaller than input %d", i, len(comp), len(src))
		}
		if again := lzCompress(src); !bytes.Equal(comp, again) {
			t.Fatalf("case %d: compression not deterministic", i)
		}
		got, err := lzDecompress(comp, len(src))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: round trip drifted", i)
		}
	}
	// Random bytes do not compress; the encoder must say so rather
	// than inflate.
	noise := make([]byte, 4096)
	rng.Read(noise)
	if comp := lzCompress(noise); comp != nil {
		t.Fatalf("incompressible input accepted (%d -> %d bytes)", len(noise), len(comp))
	}
}

// TestLZHostileBytes fuzzes the LZ decoder: corrupt streams, lying raw
// lengths, and garbage must all fail cleanly.
func TestLZHostileBytes(t *testing.T) {
	src := encodeBlock(columnarTestBlock())
	comp := lzCompress(src)
	if comp == nil {
		t.Fatal("test payload did not compress")
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4000; i++ {
		mut := append([]byte(nil), comp...)
		switch i % 4 {
		case 0:
			for j := 0; j < 1+rng.Intn(8); j++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
		case 1:
			mut = mut[:rng.Intn(len(mut))]
		case 2:
			mut = make([]byte, rng.Intn(256))
			rng.Read(mut)
		case 3:
			// keep the stream, lie about the raw length below
		}
		declared := len(src)
		if i%4 == 3 {
			declared = rng.Intn(4 * len(src))
		}
		out, err := lzDecompress(mut, declared)
		if err == nil && len(out) != declared {
			t.Fatalf("iteration %d: decoder returned %d bytes without error, declared %d", i, len(out), declared)
		}
	}
	// A lying raw length far beyond what the stream could produce is
	// rejected before allocation.
	if _, err := lzDecompress([]byte{0x80, 1, 0}, maxBlockBytes); err == nil {
		t.Fatal("absurd raw length accepted")
	}
}

// v1StoreDir holds a store written by the retired v1 writer, frozen as
// testdata: the input the pre-v3 rejection tests read.
var v1StoreDir = filepath.Join("testdata", "v1-store")

// v1FixtureFrame returns the first frame payload of the v1 fixture's
// partition file — a real row-CBOR block of a retired format.
func v1FixtureFrame(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(v1StoreDir, PartitionFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(data[partitionHeaderLen:])
	return data[partitionHeaderLen+8 : partitionHeaderLen+8+int(n)]
}

// TestMixedVersionStoreRejected pins the blended re-spill gate: a
// current store holding one block file of another format version must
// fail OpenCorpus loudly, never blend.
func TestMixedVersionStoreRejected(t *testing.T) {
	dir := t.TempDir()
	parts, m := Split(diskTestDataset(), 2)
	if err := WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err != nil {
		t.Fatalf("clean store rejected: %v", err)
	}
	// A stray copy of the v1 fixture partition over partition 0.
	v1, err := os.ReadFile(filepath.Join(v1StoreDir, PartitionFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, PartitionFileName(0)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCorpus(dir)
	if err == nil {
		t.Fatal("mixed-version store opened")
	}
	var fe *FormatVersionError
	if !strings.Contains(err.Error(), "mixed-version") || !errors.As(err, &fe) || fe.Version != 1 {
		t.Errorf("mixed-version error is not loud about the cause: %v", err)
	}
	// A full re-spill replaces everything and opens clean.
	if err := WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err != nil {
		t.Fatalf("full re-spill over a mixed store does not open: %v", err)
	}
}

// TestGoldenV1Store opens the checked-in v1 store (written by the
// retired v1 writer and frozen as testdata): OpenCorpus and the block
// reader must both reject it with a *FormatVersionError that names
// version 1 and asks for a re-spill — never misread it.
func TestGoldenV1Store(t *testing.T) {
	_, err := OpenCorpus(v1StoreDir)
	var fe *FormatVersionError
	if !errors.As(err, &fe) || fe.Version != 1 {
		t.Fatalf("golden v1 store: got %v, want a *FormatVersionError for v1", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "re-spill") {
		t.Errorf("rejection does not name the version and the fix: %v", err)
	}
	_, err = OpenPartition(filepath.Join(v1StoreDir, PartitionFileName(0)))
	if !errors.As(err, &fe) || fe.Version != 1 {
		t.Errorf("v1 block file: got %v, want a *FormatVersionError for v1", err)
	}
}
