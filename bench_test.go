// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus the FullEvaluation pair comparing the
// legacy one-scan-per-report path against the single-pass engine.
// Each benchmark regenerates its artifact from the calibrated
// synthetic dataset (1:400 scale by default; see DESIGN.md) and prints
// the rows/series once, so `go test -bench=. -benchmem` reproduces the
// whole evaluation section.
package blueskies_test

import (
	"fmt"
	"sync"
	"testing"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/synth"
)

// benchScale is the dataset downscaling factor for benchmarks.
const benchScale = 400

var datasetOnce = sync.OnceValue(func() *core.Dataset {
	return synth.Generate(synth.Config{Scale: benchScale, Seed: 2024})
})

var printed sync.Map

// run executes one report benchmark: dataset generation is amortized,
// the analysis runs every iteration, and the rendered table prints
// once per benchmark.
func run(b *testing.B, id string, report func(*core.Dataset) *analysis.Report) {
	b.Helper()
	ds := datasetOnce()
	b.ResetTimer()
	var r *analysis.Report
	for i := 0; i < b.N; i++ {
		r = report(ds)
	}
	b.StopTimer()
	if _, dup := printed.LoadOrStore(id, true); !dup {
		fmt.Println(r.String())
	}
	b.ReportMetric(float64(len(r.Rows)), "rows")
}

// ---- Section headline numbers ----

func BenchmarkSection4DatasetCounts(b *testing.B) { run(b, "S4", analysis.Section4) }
func BenchmarkSection5Identity(b *testing.B)      { run(b, "S5", analysis.Section5) }
func BenchmarkSection6Moderation(b *testing.B)    { run(b, "S6", analysis.Section6) }

// ---- Tables ----

func BenchmarkTable1FirehoseEventTypes(b *testing.B)     { run(b, "T1", analysis.Table1) }
func BenchmarkTable2RegistrarConcentration(b *testing.B) { run(b, "T2", analysis.Table2) }
func BenchmarkTable3TopCommunityLabelers(b *testing.B)   { run(b, "T3", analysis.Table3) }
func BenchmarkTable4LabelTargets(b *testing.B)           { run(b, "T4", analysis.Table4) }
func BenchmarkTable5FeedServiceFeatures(b *testing.B)    { run(b, "T5", analysis.Table5) }
func BenchmarkTable6LabelerReactionTimes(b *testing.B)   { run(b, "T6", analysis.Table6) }

// ---- Figures ----

func BenchmarkFigure1DailyActivity(b *testing.B)        { run(b, "F1", analysis.Figure1) }
func BenchmarkFigure2LanguageCommunities(b *testing.B)  { run(b, "F2", analysis.Figure2) }
func BenchmarkFigure3HandleConcentration(b *testing.B)  { run(b, "F3", analysis.Figure3) }
func BenchmarkFigure4LabelsBySource(b *testing.B)       { run(b, "F4", analysis.Figure4) }
func BenchmarkFigure5LabelerReaction(b *testing.B)      { run(b, "F5", analysis.Figure5) }
func BenchmarkFigure6LabelValueReaction(b *testing.B)   { run(b, "F6", analysis.Figure6) }
func BenchmarkFigure7FeedGenGrowth(b *testing.B)        { run(b, "F7", analysis.Figure7) }
func BenchmarkFigure8DescriptionWords(b *testing.B)     { run(b, "F8", analysis.Figure8) }
func BenchmarkFigure9FeedLabels(b *testing.B)           { run(b, "F9", analysis.Figure9) }
func BenchmarkFigure10PostsVsLikes(b *testing.B)        { run(b, "F10", analysis.Figure10) }
func BenchmarkFigure11DegreeDistributions(b *testing.B) { run(b, "F11", analysis.Figure11) }
func BenchmarkFigure12ProviderShares(b *testing.B)      { run(b, "F12", analysis.Figure12) }

// ---- Full evaluation: sequential vs single-pass ----

// BenchmarkFullEvaluationSequential runs the ~25 per-table functions
// back-to-back — the legacy path, one full dataset scan per report.
func BenchmarkFullEvaluationSequential(b *testing.B) {
	ds := datasetOnce()
	b.ResetTimer()
	var reports []*analysis.Report
	for i := 0; i < b.N; i++ {
		reports = analysis.AllReports(ds)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(reports)), "reports")
}

// BenchmarkFullEvaluationParallel runs the same evaluation through the
// single-pass engine (analysis.RunAll): one traversal streams
// every record through all report accumulators at once. Output is
// byte-identical to the sequential path (asserted by
// TestFullEvaluationPathsAgree and the engine's own golden tests).
func BenchmarkFullEvaluationParallel(b *testing.B) {
	ds := datasetOnce()
	b.ResetTimer()
	var reports []*analysis.Report
	for i := 0; i < b.N; i++ {
		reports = analysis.RunAll(ds, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(reports)), "reports")
}

// TestFullEvaluationPathsAgree pins the bench comparison's premise on
// the bench dataset itself: both paths must render identical bytes.
func TestFullEvaluationPathsAgree(t *testing.T) {
	ds := datasetOnce()
	seq := analysis.AllReports(ds)
	par := analysis.RunAll(ds, 0)
	if len(seq) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Fatalf("report %s differs between sequential and parallel paths", seq[i].ID)
		}
	}
}

// ---- Workload generation itself ----

func BenchmarkWorldGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synth.Generate(synth.Config{Scale: 2000, Seed: int64(i)})
	}
}
