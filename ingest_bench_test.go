// Ingest-path benchmark: prices the collector's level-one traversal
// fed from a partition block stream — the records/sec a collection
// pipeline sustains through decode plus accumulation. CI runs it as a
// smoke alongside the other ablations.
package blueskies_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/synth"
)

// BenchmarkCollectorIngest runs the full engine's level-one traversal
// over one spilled partition served from memory. Each iteration
// decodes every block and folds every record; the records/s metric is
// the end-to-end ingest rate. The sub-benchmark is named after the
// disk format, so result history stays comparable.
func BenchmarkCollectorIngest(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 2000, Seed: 1})
	parts, m := core.Split(ds, 1)
	records := ds.Counts().Total()
	dir := b.TempDir()
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, core.PartitionFileName(0)))
	if err != nil {
		b.Fatal(err)
	}
	info := m.Partitions[0]
	b.Run(fmt.Sprintf("v%d", core.DiskFormatVersion), func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			src := &analysis.ReaderSource{
				Open: func() (*core.PartitionReader, error) {
					return core.NewPartitionReader(bytes.NewReader(data))
				},
				Base:    info.Base,
				Records: &info.Records,
				Name:    "ingest bench blocks",
			}
			world, _, _, err := analysis.NewFullEngine().RunLevelOne(src)
			if err != nil {
				b.Fatal(err)
			}
			if got := world.Counts().Total(); got != records {
				b.Fatalf("ingested %d records, want %d", got, records)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
