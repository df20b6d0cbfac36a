// Package analysis computes every statistic in the paper's evaluation
// (§4–§7) and renders the tables and figure series the paper reports.
//
// # Architecture: Source → Accumulator → two-level merge
//
// The computation is organized so that one corpus traversal feeds
// every report, wherever the corpus lives:
//
//	Accumulator  one report's computation: declares the collections it
//	             consumes (Needs), allocates Shard state, merges
//	             partition shards, renders Reports from merged state
//	             (engine.go)
//	Source       one corpus traversal: streams record blocks through
//	             the registered accumulators and returns their state.
//	             Every local source feeds one block ingest
//	             (streamIngest, stream.go): blocks apply in order,
//	             label metadata is interned once per block, and the
//	             accumulators run in worker groups, each consuming the
//	             block sequence in order. The sources differ only in
//	             where the blocks come from —
//	             DatasetSource   a materialized core.Dataset, cut into
//	                             zero-copy blocks in the spilled
//	                             partition layout (core.DatasetBlocks,
//	                             source.go)
//	             StreamSource    a live record stream (firehose +
//	                             labeler subscriptions or a sequencer
//	                             replay), with stop-the-world snapshots
//	                             (stream.go)
//	             DiskSource      one partition of a disk-backed store,
//	                             streamed block by block — out-of-core
//	                             evaluation with one decoded block
//	                             resident per partition (disk.go);
//	                             ReaderSource is its transport-agnostic
//	                             core (any block reader, e.g. frames
//	                             shipped over the wire)
//	             StateSource     one partition's deserialized level-one
//	                             state — the remote execution mode: a
//	                             worker runs the traversal elsewhere
//	                             and ships MarshalPartitionState bytes
//	                             home for the fold (state.go,
//	                             internal/sched)
//	             MultiSource     a set of partition Sources of any of
//	                             the above kinds, folded through the
//	                             two-level merge (multi.go)
//	Engine       registers accumulators, drives a Source, renders; the
//	             paper's full evaluation is NewFullEngine, and RunAll /
//	             RunAllPartitioned / RunAllDisk are its entry points
//
// Level one of the merge is a partition's own ingest (one shard per
// accumulator, one set of intern tables); level two is across
// partitions (intern tables remap into one corpus id space,
// partition-local user indexes rebase by the manifest's bases, shard
// states fold in partition order). Between the two levels sits the
// snapshot layer: every Accumulator serializes its level-one shard
// (MarshalShard/UnmarshalShard, DESIGN.md §9), so the fold consumes
// wire state from a remote worker exactly as it consumes in-process
// state.
//
// # Determinism contract
//
// For a fixed corpus the engine produces byte-identical reports at any
// worker count, any partition count, and from any source pairing —
// batch, stream, or disk. The parity goldens pin it: an n-way split
// evaluated through partitions matches the unsplit run
// (TestPartitionedBatchParityGolden), a replayed stream matches batch
// (TestStreamingParityGolden), and a spilled on-disk corpus matches
// the in-memory golden (TestDiskParityGolden). The rules that make it
// hold are described at the top of engine.go.
//
// The legacy per-table functions (Section4, Table1…Table6,
// Figure1…Figure12) are thin wrappers that run their single
// accumulator sequentially, so both paths render byte-identical
// Reports.
package analysis
