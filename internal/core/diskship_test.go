package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// shipTestFile writes diskTestDataset as a block file, two records per
// block, and returns its bytes.
func shipTestFile(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "part.cbor")
	if err := WritePartition(path, diskTestDataset(), 2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// collectBlocks materializes every row of a framed block payload.
func collectBlocks(t *testing.T, data []byte) *Dataset {
	t.Helper()
	pr, err := NewPartitionReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out := &Dataset{}
	for {
		b, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Header != nil {
			out.Scale = b.Header.Scale
			out.Firehose = b.Header.Firehose
			out.NonBskyEvents = b.Header.NonBskyEvents
		}
		out.Labelers = append(out.Labelers, b.Labelers...)
		out.Users = append(out.Users, b.Users...)
		out.Posts = append(out.Posts, b.Posts...)
		out.Daily = append(out.Daily, b.Days...)
		out.Labels = append(out.Labels, b.Labels...)
		out.FeedGens = append(out.FeedGens, b.FeedGens...)
		out.Domains = append(out.Domains, b.Domains...)
		out.HandleUpdates = append(out.HandleUpdates, b.HandleUpdates...)
	}
}

// TestClipPartitionBlocksParity pins the sliced-ship contract: the
// clipped payload for each leg of a split carries exactly that leg's
// rows (the same sub-ranges SubRowRange describes), facts ride on leg
// 0 only, and the legs concatenate back to the whole partition.
func TestClipPartitionBlocksParity(t *testing.T) {
	ds := diskTestDataset()
	data := shipTestFile(t)
	info := ds.PartitionInfo(0)
	const nsub = 3
	subs := SubPartitionInfos(info, nsub)
	var cat *Dataset
	for j, sub := range subs {
		rng := SubRowRange(info, subs[j], j == 0)
		clipped, err := ClipPartitionBlocks(data, rng)
		if err != nil {
			t.Fatalf("sub %d: %v", j, err)
		}
		if len(clipped) >= len(data) {
			t.Errorf("sub %d: sliced payload is %d bytes, parent is %d — nothing saved", j, len(clipped), len(data))
		}
		got := collectBlocks(t, clipped)
		if counts := got.Counts(); counts != sub.Records {
			t.Fatalf("sub %d: sliced payload carries %+v rows, sub-range promises %+v", j, counts, sub.Records)
		}
		lo, hi := rng.Skip.Labels, rng.Skip.Labels+rng.Take.Labels
		if hi > lo && !reflect.DeepEqual(got.Labels, ds.Labels[lo:hi]) {
			t.Fatalf("sub %d: label rows differ from ds.Labels[%d:%d]", j, lo, hi)
		}
		if j == 0 {
			if got.Firehose != ds.Firehose || got.NonBskyEvents != ds.NonBskyEvents {
				t.Fatalf("sub 0: facts dropped: %+v / %d", got.Firehose, got.NonBskyEvents)
			}
			cat = got
		} else {
			if got.Firehose != (EventCounts{}) || got.NonBskyEvents != 0 {
				t.Fatalf("sub %d: corpus facts duplicated onto a non-facts leg", j)
			}
			cat.Users = append(cat.Users, got.Users...)
			cat.Posts = append(cat.Posts, got.Posts...)
			cat.Daily = append(cat.Daily, got.Daily...)
			cat.Labels = append(cat.Labels, got.Labels...)
			cat.FeedGens = append(cat.FeedGens, got.FeedGens...)
			cat.Domains = append(cat.Domains, got.Domains...)
			cat.HandleUpdates = append(cat.HandleUpdates, got.HandleUpdates...)
		}
	}
	whole := collectBlocks(t, data)
	if !reflect.DeepEqual(cat.Counts(), whole.Counts()) || !reflect.DeepEqual(cat.Labels, whole.Labels) ||
		!reflect.DeepEqual(cat.Users, whole.Users) || !reflect.DeepEqual(cat.Posts, whole.Posts) {
		t.Fatal("concatenated sub-range slices do not rebuild the whole partition")
	}
}

// TestCompressPartitionBlocksRoundTrip pins the ship-compression
// contract: a payload shrinks, reads back record-identical, and the
// rewrite is idempotent and deterministic; a payload whose header
// declares another format version fails like NewPartitionReader.
func TestCompressPartitionBlocksRoundTrip(t *testing.T) {
	data := shipTestFile(t)
	comp, err := CompressPartitionBlocks(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data) {
		t.Fatalf("compressed payload %d bytes, raw %d: nothing saved", len(comp), len(data))
	}
	if !reflect.DeepEqual(collectBlocks(t, comp), collectBlocks(t, data)) {
		t.Fatal("compressed payload decodes to different records")
	}
	again, err := CompressPartitionBlocks(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, comp) {
		t.Fatal("compression is not idempotent")
	}
	if second, err := CompressPartitionBlocks(data); err != nil || !bytes.Equal(second, comp) {
		t.Fatalf("compression is not deterministic (err %v)", err)
	}
	// Any header other than the current format is rejected with the
	// reader's own error — never passed through or re-checksummed.
	for _, version := range []byte{1, 2, DiskFormatVersion + 1} {
		bad := append([]byte(nil), data...)
		bad[len(partitionMagic)+3] = version
		_, err := CompressPartitionBlocks(bad)
		var fe *FormatVersionError
		if !errors.As(err, &fe) || fe.Version != int(version) {
			t.Fatalf("v%d header: got %v, want a *FormatVersionError", version, err)
		}
		_, rerr := NewPartitionReader(bytes.NewReader(bad))
		if rerr == nil || rerr.Error() != err.Error() {
			t.Fatalf("v%d header: ship path says %q, reader says %v", version, err, rerr)
		}
	}
}

// TestClipThenCompress pins the scheduler's exact ship pipeline for a
// split unit: slice, compress, read back.
func TestClipThenCompress(t *testing.T) {
	ds := diskTestDataset()
	data := shipTestFile(t)
	info := ds.PartitionInfo(0)
	subs := SubPartitionInfos(info, 2)
	rng := SubRowRange(info, subs[1], false)
	clipped, err := ClipPartitionBlocks(data, rng)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompressPartitionBlocks(clipped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectBlocks(t, comp), collectBlocks(t, clipped)) {
		t.Fatal("compressed slice decodes to different records")
	}
}
