package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"blueskies/internal/events"
)

// diskTestDataset builds a small hand-rolled dataset covering every
// collection and every field class the wire codec carries (times, maps,
// negative-able ints, bools, label sim-extensions).
func diskTestDataset() *Dataset {
	t0 := time.Date(2024, 3, 10, 12, 30, 0, 0, time.UTC)
	return &Dataset{
		Scale:         1000,
		WindowStart:   time.Date(2024, 3, 6, 0, 0, 0, 0, time.UTC),
		WindowEnd:     time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
		Firehose:      EventCounts{Commits: 100, Identity: 5, Handle: 2, Tombstone: 1},
		NonBskyEvents: 3,
		Labelers: []Labeler{
			{DID: "did:plc:official", Name: "bsky", Official: true, Values: []string{"spam", "porn"},
				Announced: t0, Functional: true, Active: true, Hosting: "cloud", Automated: true, Likes: 9},
			{DID: "did:plc:community", Name: "community", Announced: t0.Add(time.Hour), Active: true},
		},
		Users: []User{
			{DID: "did:plc:u0", Handle: "u0.bsky.social", DIDMethod: "plc", PDS: "pds0",
				Proof: ProofManaged, CreatedAt: t0, Lang: "en", Followers: 10, Following: 3, Posts: 2},
			{DID: "did:web:example.com", Handle: "example.com", DIDMethod: "web",
				Proof: ProofDNSTXT, CreatedAt: t0.Add(time.Minute), Deleted: true},
		},
		Posts: []Post{
			{URI: "at://did:plc:u0/app.bsky.feed.post/1", AuthorIdx: 0, Lang: "en",
				CreatedAt: t0, Likes: 4, HasMedia: true, AltText: true},
			{URI: "at://did:plc:u0/app.bsky.feed.post/2", AuthorIdx: 1, Lang: "pt", CreatedAt: t0.Add(time.Second)},
		},
		Daily: []DayActivity{
			{Date: t0.Truncate(24 * time.Hour), ActiveUsers: 2, Posts: 2, Likes: 4,
				ActiveByLang: map[string]int{"en": 1, "pt": 1}},
		},
		Labels: []Label{
			{Src: "did:plc:official", URI: "at://did:plc:u0/app.bsky.feed.post/1", Val: "spam",
				Kind: SubjectPost, Applied: t0.Add(90 * time.Millisecond), SubjectCreated: t0, FreshSubject: true},
			{Src: "did:plc:community", URI: "did:plc:u0", Val: "rude", Neg: true,
				Kind: SubjectAccount, Applied: t0.Add(time.Hour)},
		},
		FeedGens: []FeedGen{
			{URI: "at://did:plc:u0/app.bsky.feed.generator/f", CreatorIdx: 0, Platform: "self-hosted",
				DisplayName: "Feed", Description: "a feed", Lang: "en", CreatedAt: t0, Likes: 1,
				Posts: 7, LastPost: t0.Add(time.Minute), Reachable: true, LabeledShare: 0.25, TopLabel: "spam"},
		},
		Domains: []Domain{
			{Name: "example.com", IANAID: 42, RegistrarName: "Reg", TrancoRank: 1000, Subdomains: 2},
			{Name: "example.pt", CCTLD: true},
		},
		HandleUpdates: []HandleUpdate{
			{DID: "did:plc:u0", NewHandle: "new.bsky.social", Time: t0.Add(2 * time.Hour)},
		},
	}
}

// TestDiskPartitionRoundTrip pins the lossless codec contract: a
// dataset written block by block and read back materializes field for
// field, at several block sizes (including blocks smaller than a
// collection, which split it across frames).
func TestDiskPartitionRoundTrip(t *testing.T) {
	ds := diskTestDataset()
	for _, blockRecords := range []int{1, 3, 4096} {
		path := filepath.Join(t.TempDir(), "part.cbor")
		if err := WritePartition(path, ds, blockRecords); err != nil {
			t.Fatalf("blockRecords=%d: write: %v", blockRecords, err)
		}
		c := &Corpus{Dir: filepath.Dir(path), Manifest: BuildManifest([]*Dataset{ds}, ds.Scale, 0, true)}
		if err := os.Rename(path, filepath.Join(c.Dir, PartitionFileName(0))); err != nil {
			t.Fatal(err)
		}
		got, err := c.ReadPartition(0)
		if err != nil {
			t.Fatalf("blockRecords=%d: read: %v", blockRecords, err)
		}
		if !reflect.DeepEqual(got, ds) {
			t.Errorf("blockRecords=%d: round trip drifted:\n got %+v\nwant %+v", blockRecords, got, ds)
		}
	}
}

// TestDiskCorpusRoundTrip writes a multi-partition store and checks
// OpenCorpus + ReadPartition reproduce every split view and the
// manifest survives the JSON sidecar round trip.
func TestDiskCorpusRoundTrip(t *testing.T) {
	ds := diskTestDataset()
	parts, m := Split(ds, 2)
	dir := t.TempDir()
	if err := WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Manifest, m) {
		t.Errorf("manifest drifted through the sidecar:\n got %+v\nwant %+v", c.Manifest, m)
	}
	for k, want := range parts {
		got, err := c.ReadPartition(k)
		if err != nil {
			t.Fatalf("partition %d: %v", k, err)
		}
		// Split views alias the parent's slices; normalize nil vs empty
		// before comparing (the reader appends, so empties stay nil).
		if got.Counts() != want.Counts() {
			t.Fatalf("partition %d: counts %+v != %+v", k, got.Counts(), want.Counts())
		}
		if len(got.Users) > 0 && !reflect.DeepEqual(got.Users, want.Users) {
			t.Errorf("partition %d: users drifted", k)
		}
		if len(got.Labels) > 0 && !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Errorf("partition %d: labels drifted", k)
		}
	}
}

// corruptCase writes a 1-partition store and hands the partition file
// path to mutate before re-opening.
func corruptCase(t *testing.T, mutate func(t *testing.T, path string)) error {
	t.Helper()
	dir := t.TempDir()
	if err := WriteCorpus(dir, []*Dataset{diskTestDataset()}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, PartitionFileName(0))
	mutate(t, path)
	c, err := OpenCorpus(dir)
	if err != nil {
		return err
	}
	ds, err := c.ReadPartition(0)
	if err == nil && ds == nil {
		t.Fatal("nil dataset without error")
	}
	return err
}

// TestDiskTruncation cuts the block file at every interesting byte
// length — inside the header, inside a frame header, inside a payload,
// and exactly at a frame boundary (no end marker) — and requires an
// error, never a panic and never a silent success.
func TestDiskTruncation(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCorpus(dir, []*Dataset{diskTestDataset()}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, PartitionFileName(0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A few positions per regime plus a sweep over the first frames.
	cuts := []int{0, 4, len(partitionMagic), len(partitionMagic) + 2, len(partitionMagic) + 4,
		len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 8, len(full) - 1}
	for i := 12; i < 64 && i < len(full); i++ {
		cuts = append(cuts, i)
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(full) {
			continue
		}
		err := corruptCase(t, func(t *testing.T, p string) {
			if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if err == nil {
			t.Errorf("truncation at byte %d went unnoticed", cut)
		}
	}
}

// TestDiskCorruptBlock flips bytes in the stored frames: the checksum
// (or, for frames whose length field was hit, the length bound /
// resulting truncation) must surface an error.
func TestDiskCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCorpus(dir, []*Dataset{diskTestDataset()}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, PartitionFileName(0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{13, 20, 40, len(full) / 2, len(full) - 10} {
		if pos >= len(full) {
			continue
		}
		err := corruptCase(t, func(t *testing.T, p string) {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 0x5A
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if err == nil {
			t.Errorf("flipped byte %d went unnoticed", pos)
		}
	}
	// Trailing garbage after the end marker is also corruption.
	err = corruptCase(t, func(t *testing.T, p string) {
		if err := os.WriteFile(p, append(append([]byte(nil), full...), 0xFF), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil {
		t.Error("trailing garbage after the end frame went unnoticed")
	}
}

// TestDiskManifestMismatch covers the store-level validation: missing
// partition files, stray extra ones, a foreign manifest format, an
// unsupported version, and a partition-count disagreement all fail at
// OpenCorpus.
func TestDiskManifestMismatch(t *testing.T) {
	write := func(t *testing.T) string {
		dir := t.TempDir()
		parts, m := Split(diskTestDataset(), 2)
		if err := WriteCorpus(dir, parts, m); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	dir := write(t)
	if err := os.Remove(filepath.Join(dir, PartitionFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("missing partition file went unnoticed")
	}

	dir = write(t)
	if err := os.WriteFile(filepath.Join(dir, PartitionFileName(7)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("stray extra partition file went unnoticed")
	}

	dir = write(t)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"format":"something/else","version":1,"manifest":{"Partitions":[{}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("foreign manifest format went unnoticed")
	}

	dir = write(t)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"format":"blueskies/partition-store","version":99,"manifest":{"Partitions":[{}]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("future store version went unnoticed")
	}

	dir = write(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Partitions = m.Partitions[:1] // manifest says 1, disk has 2
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCorpus(dir); err == nil {
		t.Error("manifest/partition count mismatch went unnoticed")
	}
}

// TestDiskRespillClearsStale pins the overwrite contract: writing a
// store into a directory that already holds one replaces it entirely —
// stale part files beyond the new partition count must not survive to
// fail (or worse, blend into) later opens.
func TestDiskRespillClearsStale(t *testing.T) {
	dir := t.TempDir()
	big, m4 := Split(diskTestDataset(), 4)
	if err := WriteCorpus(dir, big, m4); err != nil {
		t.Fatal(err)
	}
	small, m2 := Split(diskTestDataset(), 2)
	if err := WriteCorpus(dir, small, m2); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatalf("re-spilled store does not open: %v", err)
	}
	if len(c.Manifest.Partitions) != 2 {
		t.Fatalf("re-spilled store has %d partitions, want 2", len(c.Manifest.Partitions))
	}
	// Unrelated files survive a re-spill; only store artifacts clear.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteCorpus(dir, small, m2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("re-spill removed an unrelated file: %v", err)
	}
}

// TestSimBlockRejectsInlineLabels pins the wire invariant from the
// receive side: inline labels are a disk-store affordance, and a
// #sim.block stream frame smuggling them in must be rejected by
// DecodeStreamEvent (not just unproducible via BlockEvent) — they
// would bypass the labeler gate and the per-partition label bases.
func TestSimBlockRejectsInlineLabels(t *testing.T) {
	ds := diskTestDataset()
	if _, err := BlockEvent(&RecordBlock{Labels: ds.Labels}); err == nil {
		t.Fatal("BlockEvent accepted labels")
	}
	body, err := MarshalBlock(&RecordBlock{Labels: ds.Labels})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeStreamEvent(&events.Sim{Kind: simKindBlock, Body: body}); err == nil {
		t.Fatal("DecodeStreamEvent accepted a sim block carrying inline labels")
	}
}

// TestDiskVersionGate pins the block-file header checks: wrong magic
// and truncation are rejected, and so is every format version other
// than the current one — the retired v1 and v2 as well as future ones —
// with a typed error that names the version and asks for a re-spill.
func TestDiskVersionGate(t *testing.T) {
	if _, err := NewPartitionReader(bytes.NewReader([]byte("NOTAPART\x00\x00\x00\x03"))); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := NewPartitionReader(bytes.NewReader([]byte(partitionMagic))); err == nil {
		t.Error("header-truncated file accepted")
	}
	for _, version := range []int{1, 2, 0x63} {
		hdr := append([]byte(partitionMagic), 0, 0, 0, byte(version))
		_, err := NewPartitionReader(bytes.NewReader(hdr))
		var fe *FormatVersionError
		if !errors.As(err, &fe) || fe.Version != version {
			t.Errorf("v%d block-file header: got %v, want a *FormatVersionError", version, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", version)) || !strings.Contains(msg, "re-spill") {
			t.Errorf("v%d rejection does not name the version and the fix: %v", version, err)
		}
	}
}

// drainPartition reads blocks until EOF or error.
func drainPartition(pr *PartitionReader) error {
	for {
		if _, err := pr.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// TestPartitionReaderHostileBytes is the always-on randomized half of
// the fuzz coverage (the repo's CI runs `go test`, not `go test
// -fuzz`): thousands of random mutations, truncations, and splices of
// a valid partition file, plus pure noise, must all produce errors or
// clean EOFs — never a panic and never a runaway allocation.
func TestPartitionReaderHostileBytes(t *testing.T) {
	plain := shipTestFile(t)
	// Mutate the compressed form too: corrupt LZ frames must fail as
	// cleanly as corrupt plain frames.
	comp, err := CompressPartitionBlocks(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, valid := range [][]byte{plain, comp} {
		versionHeader := valid[:partitionHeaderLen]
		rng := rand.New(rand.NewSource(20240501))
		for i := 0; i < 4000; i++ {
			var mut []byte
			switch i % 4 {
			case 0: // byte flips
				mut = append([]byte(nil), valid...)
				for j := 0; j < 1+rng.Intn(8); j++ {
					mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				}
			case 1: // truncation
				mut = valid[:rng.Intn(len(valid))]
			case 2: // splice two random windows
				a, b := rng.Intn(len(valid)), rng.Intn(len(valid))
				mut = append(append([]byte(nil), valid[:a]...), valid[b:]...)
			case 3: // noise with a valid header
				mut = make([]byte, rng.Intn(512))
				rng.Read(mut)
				if i%8 == 3 {
					mut = append(append([]byte(nil), versionHeader...), mut...)
				}
			}
			pr, err := NewPartitionReader(bytes.NewReader(mut))
			if err != nil {
				continue
			}
			_ = drainPartition(pr) // errors are expected; panics fail the test
		}
	}
}

// FuzzPartitionReader throws arbitrary bytes at the block reader: it
// must always return (blocks, error) — never panic, never spin — for
// any input, seeded with a valid partition file and its mutations.
func FuzzPartitionReader(f *testing.F) {
	valid := shipTestFile(f)
	comp, err := CompressPartitionBlocks(valid)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join(v1StoreDir, PartitionFileName(0)))
	if err != nil {
		f.Fatal(err)
	}
	// The v1 fixture's frames behind a current header: CBOR payloads
	// and FNV checksums the reader must refuse, not misparse.
	v1Relabeled := append([]byte(nil), v1...)
	v1Relabeled[partitionHeaderLen-1] = DiskFormatVersion
	for _, seed := range [][]byte{
		valid, valid[:len(valid)/2],
		comp, comp[:len(comp)/2],
		v1, v1[:len(v1)/2], v1Relabeled,
		[]byte(partitionMagic + "\x00\x00\x00\x01"),
		[]byte(partitionMagic + "\x00\x00\x00\x02"),
		[]byte(partitionMagic + "\x00\x00\x00\x63"),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := NewPartitionReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = drainPartition(pr) // any error is fine; panics are not
	})
}
