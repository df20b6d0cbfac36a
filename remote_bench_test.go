// Remote-path benchmark: prices the scheduler's loopback remote
// evaluation — every partition's level-one merge behind the full
// request/state wire codecs — against the plain out-of-core run of
// the same spilled corpus, and reports the serialized shard-state
// volume a remote run ships home. CI runs it as a smoke alongside the
// other ablations.
package blueskies_test

import (
	"testing"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/sched"
	"blueskies/internal/synth"
)

// BenchmarkRemoteEvaluation evaluates an 8-partition spilled corpus
// through two loopback workers (store-reference and shipped-blocks
// modes) and through the local disk path. All three render
// byte-identical reports; the remote sub-benchmarks report
// state-bytes-MB — the wire volume of the serialized shard states the
// level-two fold consumes.
func BenchmarkRemoteEvaluation(b *testing.B) {
	dir := b.TempDir()
	const parts = 8
	if _, err := synth.GeneratePartitionedTo(synth.Config{Scale: 400, Seed: 1}, parts, dir, 0); err != nil {
		b.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		b.Fatal(err)
	}

	stateMB := func() float64 {
		eng := analysis.NewFullEngine()
		total := 0
		for k := range c.Manifest.Partitions {
			state, err := eng.Snapshot(analysis.NewDiskSource(c, k))
			if err != nil {
				b.Fatal(err)
			}
			total += len(state)
		}
		return float64(total) / (1 << 20)
	}()

	// shipMB prices the request-side wire volume: the store bytes a
	// ship-blocks run sends to the fleet.
	shipMB := func() float64 {
		total := 0
		for k := range c.Manifest.Partitions {
			blocks, err := sched.ReadPartitionBlocks(c, k)
			if err != nil {
				b.Fatal(err)
			}
			total += len(blocks)
		}
		return float64(total) / (1 << 20)
	}()

	runSched := func(b *testing.B, ship bool) {
		for i := 0; i < b.N; i++ {
			s := sched.New(c,
				&sched.Loopback{Server: &sched.Server{}, Label: "w0"},
				&sched.Loopback{Server: &sched.Server{}, Label: "w1"},
			)
			s.ShipBlocks = ship
			reports, err := s.RunAll(0)
			if err != nil {
				b.Fatal(err)
			}
			if len(reports) == 0 {
				b.Fatal("no reports")
			}
		}
		b.ReportMetric(stateMB, "state-bytes-MB")
		if ship {
			b.ReportMetric(shipMB, "ship-bytes-MB")
		}
	}
	b.Run("loopback-store", func(b *testing.B) { runSched(b, false) })
	b.Run("loopback-ship", func(b *testing.B) { runSched(b, true) })
	b.Run("local-disk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reports, err := analysis.RunAllDisk(c, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(reports) == 0 {
				b.Fatal("no reports")
			}
		}
	})
}
