// Disk-path benchmark: prices the out-of-core evaluation and reports
// the memory evidence for its contract — the disk run's peak heap
// carries only the evaluation's own state (accumulators, intern
// tables, one decoded block per concurrent partition), while the
// in-memory run additionally holds the whole materialized corpus. CI
// runs it as a smoke alongside the other ablations.
package blueskies_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/core"
	"blueskies/internal/synth"
)

// peakHeapDuring GCs to a baseline, runs fn with a HeapAlloc sampler,
// and returns the peak growth over the baseline in MB. The number
// includes not-yet-collected garbage (it is a residency ceiling, not a
// live-set measurement), which is exactly what an operator provisioning
// memory cares about.
func peakHeapDuring(fn func()) float64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	peak.Store(base.HeapAlloc)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				for {
					old := peak.Load()
					if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return float64(peak.Load()-base.HeapAlloc) / (1 << 20)
}

// BenchmarkDiskEvaluation compares the full evaluation over an
// 8-partition spilled corpus in its two execution modes:
//
//	out-of-core  partitions stream from disk block by block
//	in-memory    partitions materialize first, then evaluate
//
// Both render byte-identical reports; each sub-benchmark reports its
// peak-heap-MB (growth over a GC'd baseline), and the parent reports
// partition-heap-MB (one materialized partition) and corpus-disk-MB
// for scale. The tentpole's bound: out-of-core peak tracks the
// evaluation state, in-memory peak that plus the whole corpus.
func BenchmarkDiskEvaluation(b *testing.B) {
	dir := b.TempDir()
	const parts = 8
	if _, err := synth.GeneratePartitionedTo(synth.Config{Scale: 400, Seed: 1}, parts, dir, 0); err != nil {
		b.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		b.Fatal(err)
	}

	const mb = 1.0 / (1 << 20)
	var diskBytes int64
	for k := 0; k < parts; k++ {
		fi, err := os.Stat(filepath.Join(dir, core.PartitionFileName(k)))
		if err != nil {
			b.Fatal(err)
		}
		diskBytes += fi.Size()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p0, err := c.ReadPartition(0)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	partitionMB := float64(after.HeapAlloc-before.HeapAlloc) * mb
	runtime.KeepAlive(p0)
	p0 = nil

	b.Run("out-of-core", func(b *testing.B) {
		peak := 0.0
		for i := 0; i < b.N; i++ {
			peak = max(peak, peakHeapDuring(func() {
				reports, err := analysis.RunAllDisk(c, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) == 0 {
					b.Fatal("no reports")
				}
			}))
		}
		b.ReportMetric(peak, "peak-heap-MB")
		b.ReportMetric(partitionMB, "partition-heap-MB")
		b.ReportMetric(float64(diskBytes)*mb, "corpus-disk-MB")
	})
	b.Run("in-memory", func(b *testing.B) {
		peak := 0.0
		for i := 0; i < b.N; i++ {
			peak = max(peak, peakHeapDuring(func() {
				mats := make([]*core.Dataset, parts)
				for k := range mats {
					var err error
					if mats[k], err = c.ReadPartition(k); err != nil {
						b.Fatal(err)
					}
				}
				reports, err := analysis.RunAllPartitioned(mats, c.Manifest, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(reports) == 0 {
					b.Fatal("no reports")
				}
			}))
		}
		b.ReportMetric(peak, "peak-heap-MB")
	})
}

// BenchmarkBlockDecode prices raw partition-block decode over an
// in-memory byte stream — the line rate of the columnar codec. Each
// iteration drains a full PartitionReader; the output reports MB/s of
// encoded input plus the encoded size. The sub-benchmark is named
// after the disk format, so result history stays comparable.
func BenchmarkBlockDecode(b *testing.B) {
	ds := synth.Generate(synth.Config{Scale: 2000, Seed: 1})
	parts, m := core.Split(ds, 1)
	dir := b.TempDir()
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, core.PartitionFileName(0)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("v%d", core.DiskFormatVersion), func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		records := 0
		for i := 0; i < b.N; i++ {
			pr, err := core.NewPartitionReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			records = 0
			for {
				blk, err := pr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				records += len(blk.Users) + len(blk.Posts) + len(blk.Days) +
					len(blk.Labels) + len(blk.FeedGens) + len(blk.Domains) + len(blk.HandleUpdates)
			}
		}
		if records != ds.Counts().Total() {
			b.Fatalf("decoded %d records, want %d", records, ds.Counts().Total())
		}
		b.ReportMetric(float64(len(data))/(1<<20), "encoded-MB")
	})
}
