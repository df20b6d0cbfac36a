// Ablation benchmarks for the design choices DESIGN.md calls out:
// MST canonical rebuild cost (the price of the rebuild-from-keyset
// simplification), commit + CAR export cost in the PDS hot path,
// firehose fan-out under subscriber load, and the §6.1 observation
// that the AppView's label ingest scales with the number of labelers.
package blueskies_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/appview"
	"blueskies/internal/cbor"
	"blueskies/internal/cid"
	"blueskies/internal/core"
	"blueskies/internal/events"
	"blueskies/internal/identity"
	"blueskies/internal/lexicon"
	"blueskies/internal/mst"
	"blueskies/internal/repo"
	"blueskies/internal/synth"
)

// BenchmarkMSTRebuild measures canonical tree construction across repo
// sizes; the repo layer rebuilds the MST on every commit.
func BenchmarkMSTRebuild(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			tree := mst.New()
			for i := 0; i < n; i++ {
				_ = tree.Put(fmt.Sprintf("app.bsky.feed.post/%013d", i), cid.SumRaw([]byte{byte(i), byte(i >> 8)}))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs := mst.NewMemBlockStore()
				if _, err := tree.Build(bs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepoCommit measures the full signed-commit path (stage,
// diff, MST rebuild, sign) on a growing repository.
func BenchmarkRepoCommit(b *testing.B) {
	kp := identity.DeriveKeyPair("bench")
	did := identity.PLCFromGenesis([]byte("bench"))
	r := repo.New(did, kp)
	ts := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = r.Put("app.bsky.feed.post", fmt.Sprintf("%013d", i),
			lexicon.NewPost("bench post", []string{"en"}, ts))
		if _, err := r.Commit(ts.Add(time.Duration(i) * time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCARExport measures full-repo archive serialization (the
// sync.getRepo hot path on PDS and relay).
func BenchmarkCARExport(b *testing.B) {
	kp := identity.DeriveKeyPair("car-bench")
	did := identity.PLCFromGenesis([]byte("car-bench"))
	r := repo.New(did, kp)
	ts := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1_000; i++ {
		_, _, _ = r.Put("app.bsky.feed.post", fmt.Sprintf("%013d", i),
			lexicon.NewPost("export me", nil, ts))
	}
	if _, err := r.Commit(ts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ExportCAR(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirehoseFanout measures sequencer emit latency as the
// subscriber count grows (the relay's fan-out hot path).
func BenchmarkFirehoseFanout(b *testing.B) {
	for _, subs := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			seq := events.NewSequencer(0, 10_000)
			for i := 0; i < subs; i++ {
				ch, cancel := seq.Subscribe(1024)
				defer cancel()
				go func() {
					for range ch {
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = seq.Emit(func(s int64) any {
					return &events.Identity{Seq: s, DID: "did:plc:bench", Time: "2024-04-01T00:00:00.000Z"}
				})
			}
		})
	}
}

// BenchmarkAppViewLabelIngest reproduces the §6.1 scalability
// observation: the AppView must store every label from every labeler,
// so ingest work grows with the labeler population.
func BenchmarkAppViewLabelIngest(b *testing.B) {
	for _, labelers := range []int{1, 8, 36} {
		b.Run(fmt.Sprintf("labelers=%d", labelers), func(b *testing.B) {
			v := appview.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := 0; l < labelers; l++ {
					v.Ingest(&events.Labels{Seq: int64(i*labelers + l), Labels: []events.Label{{
						Src: fmt.Sprintf("did:plc:labeler%024d", l),
						URI: fmt.Sprintf("at://did:plc:user/app.bsky.feed.post/%d", i),
						Val: "bench", CTS: "2024-04-01T00:00:00.000Z",
					}}})
				}
			}
			b.ReportMetric(float64(v.LabelCount())/float64(b.N), "labels/op")
		})
	}
}

// BenchmarkCommitEventDecode measures firehose frame decode (every
// consumer's per-event cost).
func BenchmarkCommitEventDecode(b *testing.B) {
	recCID := cid.SumCBOR(cbor.MustMarshal(lexicon.NewPost("x", nil, time.Now())))
	frame, err := events.Encode(&events.Commit{
		Seq: 1, Repo: "did:plc:abcdefghijklmnopqrstuvwx", Rev: "3kdgeujwlq32y",
		Commit: cid.SumRaw([]byte("c")),
		Ops:    []events.RepoOp{{Action: "create", Path: "app.bsky.feed.post/3kdgeujwlq32y", CID: &recCID}},
		Blocks: bytes.Repeat([]byte{0xab}, 512),
		Time:   "2024-04-01T00:00:00.000Z",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := events.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWorkers ablates the evaluation engine's accumulator
// groups: the same single-pass evaluation at fixed worker counts,
// isolating the cost of fanning each block out to the groups from the
// work-sharing win the FullEvaluation pair measures.
func BenchmarkEngineWorkers(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 2000, Seed: 1})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := analysis.RunAll(ds, workers); len(got) == 0 {
					b.Fatal("no reports")
				}
			}
		})
	}
}

// BenchmarkPartitionedEvaluation ablates the two-level merge: the full
// evaluation over an n-way row-range split of the corpus at fixed
// per-partition worker counts, against the partitions=1 baseline. The
// grid locates where the cross-partition fold (intern-table remap plus
// one extra shard merge per partition) crosses the single-dataset
// traversal — by construction every cell renders byte-identical
// reports, so the delta is pure partitioning overhead (or win, once
// partitions give otherwise-idle cores contiguous ranges to scan).
func BenchmarkPartitionedEvaluation(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 400, Seed: 1})
	for _, parts := range []int{1, 2, 4, 8} {
		split, manifest := core.Split(ds, parts)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("partitions=%d/workers=%d", parts, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					got, err := analysis.RunAllPartitioned(split, manifest, workers)
					if err != nil {
						b.Fatal(err)
					}
					if len(got) == 0 {
						b.Fatal("no reports")
					}
				}
			})
		}
	}
}

// BenchmarkPartitionedGeneration compares monolithic generation with
// partition-parallel independent generation (disjoint RNG streams, no
// shared heap) at matching corpus scale.
func BenchmarkPartitionedGeneration(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if parts == 1 {
					synth.Generate(synth.Config{Scale: 400, Seed: int64(i)})
					continue
				}
				synth.GeneratePartitioned(synth.Config{Scale: 400, Seed: int64(i)}, parts)
			}
		})
	}
}

// BenchmarkStreamingSnapshot measures the streaming evaluation: the
// corpus replayed through firehose + labeler sequencers, decoded from
// frames, and accumulated with periodic full-report snapshots — the
// run-forever path of `bskyanalyze -follow`, whose final snapshot is
// byte-identical to RunAll.
func BenchmarkStreamingSnapshot(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 2000, Seed: 1})
	for _, every := range []int{0, 25_000} {
		b.Run(fmt.Sprintf("snapshotEvery=%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fire := events.NewSequencer(0, 0)
				labeler := events.NewSequencer(0, 0)
				blocks, errs := core.DrainSequencers(context.Background(), fire, labeler)
				replayErr := make(chan error, 1)
				go func() { replayErr <- synth.Replay(ds, fire, labeler, 0) }()
				snapshots := 0
				src := &analysis.StreamSource{
					Blocks:        blocks,
					SnapshotEvery: every,
					OnSnapshot:    func(int, []*analysis.Report) { snapshots++ },
				}
				reports, err := analysis.NewFullEngine().RunSource(src)
				if err != nil {
					b.Fatal(err)
				}
				if err := <-replayErr; err != nil {
					b.Fatal(err)
				}
				for err := range errs {
					b.Fatal(err)
				}
				if len(reports) == 0 {
					b.Fatal("no reports")
				}
				b.ReportMetric(float64(snapshots), "snapshots/op")
			}
		})
	}
}

// BenchmarkDiscussionBandwidth regenerates the §9 firehose-bandwidth
// estimate (paper: ≈30 GB/day per subscribed client).
func BenchmarkDiscussionBandwidth(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 2000, Seed: 1})
	b.ResetTimer()
	var bw analysis.FirehoseBandwidth
	for i := 0; i < b.N; i++ {
		bw = analysis.EstimateFirehoseBandwidth(ds)
	}
	b.StopTimer()
	b.ReportMetric(bw.GBPerDayPaper, "GB/day-projected")
}
