package analysis

import (
	"reflect"
	"testing"

	"blueskies/internal/core"
)

// TestBuildLabelMetaFusedParity pins the zero-rehash contract at the
// unit level: folding a decoded block's dictionary view into fresh
// intern tables must produce byte-identical metadata AND tables to the
// per-record path — same ids, same first-occurrence order.
func TestBuildLabelMetaFusedParity(t *testing.T) {
	didIdx := make(map[string]int32, len(ds.Labelers))
	for i, lb := range ds.Labelers {
		didIdx[lb.DID] = int32(i)
	}
	src := &core.RecordBlock{Labelers: ds.Labelers, Labels: ds.Labels}
	enc, err := core.MarshalBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, db, err := core.UnmarshalBlockDict(enc, true)
	if err != nil {
		t.Fatal(err)
	}
	if db == nil || len(db.LabelSrc) != len(dec.Labels) {
		t.Fatalf("no parallel dictionary view (%d ids, %d labels)", len(db.LabelSrc), len(dec.Labels))
	}
	plainT := newLabelTables()
	want := buildLabelMeta(ds.Labelers, dec.Labels, plainT, didIdx)
	fusedT := newLabelTables()
	got := buildLabelMetaFused(ds.Labelers, dec.Labels, db, fusedT, didIdx)
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("label %d meta drifted:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		t.Fatal("meta drifted")
	}
	if !reflect.DeepEqual(fusedT.URIs, plainT.URIs) ||
		!reflect.DeepEqual(fusedT.Vals, plainT.Vals) ||
		!reflect.DeepEqual(fusedT.ExtraSrcs, plainT.ExtraSrcs) {
		t.Fatalf("fused intern tables drifted (vals %d/%d, uris %d/%d, extras %d/%d)",
			len(fusedT.Vals), len(plainT.Vals), len(fusedT.URIs), len(plainT.URIs),
			len(fusedT.ExtraSrcs), len(plainT.ExtraSrcs))
	}
}

// TestFusedIngestParityGolden drives the whole fused path — spill,
// stream back through NextDict +
// applyColumnar — against the in-memory golden for n ∈ {1,2,4,8}
// partitions at several worker counts. It complements
// TestDiskParityGolden by pinning that the dictionary view is actually
// present on the disk path (a silent fallback to per-record interning
// would pass the golden while losing the optimization).
func TestFusedIngestParityGolden(t *testing.T) {
	want := RunAll(ds, 1)
	for _, n := range []int{1, 2, 4, 8} {
		parts, m := core.Split(ds, n)
		dir := t.TempDir()
		if err := core.WriteCorpus(dir, parts, m); err != nil {
			t.Fatalf("n=%d: spill: %v", n, err)
		}
		c, err := core.OpenCorpus(dir)
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		// The store must actually carry dictionary views on its label
		// blocks — otherwise this golden only exercises the fallback.
		pr, err := c.OpenPartition(0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sawDict := false
		for {
			b, db, err := pr.NextDict()
			if err != nil {
				break
			}
			if len(b.Labels) > 0 && db != nil && len(db.LabelSrc) == len(b.Labels) {
				sawDict = true
			}
		}
		pr.Close()
		if !sawDict {
			t.Fatalf("n=%d: no label block carried a dictionary view; the fused path never ran", n)
		}
		for _, workers := range []int{0, 1, 3} {
			got, err := RunAllDisk(c, workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			compareReports(t, label("fused", n, workers), got, want)
		}
	}
}
