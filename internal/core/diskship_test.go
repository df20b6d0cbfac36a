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
