package analysis

import (
	"testing"

	"blueskies/internal/synth"
)

// TestEngineMatchesLegacyReports is the golden-equality gate: the
// single-pass engine must render byte-identical reports to the legacy
// per-table functions, at every worker count.
func TestEngineMatchesLegacyReports(t *testing.T) {
	legacy := AllReports(ds)
	for _, workers := range []int{1, 2, 3, 8} {
		got := RunAll(ds, workers)
		if len(got) != len(legacy) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(legacy))
		}
		for i, r := range got {
			want := legacy[i]
			if r.ID != want.ID {
				t.Fatalf("workers=%d: report %d is %s, want %s", workers, i, r.ID, want.ID)
			}
			if r.String() != want.String() {
				t.Errorf("workers=%d: report %s differs from legacy:\n--- engine ---\n%s\n--- legacy ---\n%s",
					workers, r.ID, r.String(), want.String())
			}
		}
	}
}

// TestEngineWorkerCountInvariance pins the determinism contract
// directly: any two worker counts must agree byte-for-byte.
func TestEngineWorkerCountInvariance(t *testing.T) {
	one := RunAll(ds, 1)
	for _, workers := range []int{2, 5, 16} {
		many := RunAll(ds, workers)
		for i := range one {
			if one[i].String() != many[i].String() {
				t.Fatalf("workers=%d: report %s differs from workers=1", workers, one[i].ID)
			}
		}
	}
}

// TestEngineSubsetRegistration checks that a partial engine only
// renders what was registered and skips unneeded collections.
func TestEngineSubsetRegistration(t *testing.T) {
	reports := NewEngine(newTable2Acc(), newSection6Acc()).Workers(2).Run(ds)
	if len(reports) != 2 || reports[0].ID != "T2" || reports[1].ID != "S6" {
		ids := make([]string, len(reports))
		for i, r := range reports {
			ids[i] = r.ID
		}
		t.Fatalf("reports = %v, want [T2 S6]", ids)
	}
	if reports[0].String() != Table2(ds).String() {
		t.Fatal("partial-engine T2 differs from wrapper")
	}
	if reports[1].String() != Section6(ds).String() {
		t.Fatal("partial-engine S6 differs from wrapper")
	}
}

// TestRunAllCanonicalOrder pins the report ordering of the paper's
// evaluation.
func TestRunAllCanonicalOrder(t *testing.T) {
	reports := RunAll(ds, 0)
	if len(reports) != len(canonicalOrder) {
		t.Fatalf("reports = %d, want %d", len(reports), len(canonicalOrder))
	}
	for i, r := range reports {
		if r.ID != canonicalOrder[i] {
			t.Fatalf("report %d = %s, want %s", i, r.ID, canonicalOrder[i])
		}
	}
}

// TestEngineOnLargerWorld runs the golden comparison on a denser
// dataset where label/URI intern tables span multiple shards.
func TestEngineOnLargerWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("larger world")
	}
	big := synth.Generate(synth.Config{Scale: 400, Seed: 7})
	legacy := AllReports(big)
	got := RunAll(big, 4)
	for i, r := range got {
		if r.String() != legacy[i].String() {
			t.Errorf("report %s differs on 1:400 world", r.ID)
		}
	}
}
