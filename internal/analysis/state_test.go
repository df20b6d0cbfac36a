package analysis

import (
	"bytes"
	"sync"
	"testing"

	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/synth"
)

// snapshotPartitions runs level one over every partition and returns
// each partition's serialized state.
func snapshotPartitions(t *testing.T, parts []*core.Dataset, m *core.Manifest, workers int) [][]byte {
	t.Helper()
	states := make([][]byte, len(parts))
	for k, p := range parts {
		eng := NewFullEngine().Workers(workers)
		state, err := eng.Snapshot(NewDatasetSourceAt(p, m.Partitions[k].Base))
		if err != nil {
			t.Fatalf("snapshot partition %d: %v", k, err)
		}
		states[k] = state
	}
	return states
}

// restoreSources decodes serialized partition states into fold-ready
// Sources.
func restoreSources(t *testing.T, states [][]byte) []Source {
	t.Helper()
	eng := NewFullEngine()
	srcs := make([]Source, len(states))
	for k, state := range states {
		src, err := eng.RestoreState(state)
		if err != nil {
			t.Fatalf("restore partition %d: %v", k, err)
		}
		srcs[k] = src
	}
	return srcs
}

// TestStateRoundTripGolden is the snapshot layer's acceptance gate:
// every accumulator's level-one state marshaled, unmarshaled, and
// folded through the level-two merge must render byte-identical
// reports to the flat golden, for n ∈ {1,2,4,8} — the in-process fold
// and the over-the-wire fold are the same fold.
func TestStateRoundTripGolden(t *testing.T) {
	want := RunAll(ds, 1)
	for _, n := range []int{1, 2, 4, 8} {
		parts, m := core.Split(ds, n)
		srcs := restoreSources(t, snapshotPartitions(t, parts, m, 2))
		ms := &MultiSource{Sources: srcs, Manifest: m}
		got, err := NewFullEngine().RunSource(ms)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		compareReports(t, label("state", n, 2), canonicalize(got), want)
	}
}

// TestStateRoundTripIndependent checks the rebasing path: independent
// partition datasets (partition-local user indexes) serialized and
// folded must match their in-process evaluation.
func TestStateRoundTripIndependent(t *testing.T) {
	parts, m := generatedParts(t)
	want, err := RunAllPartitioned(parts, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	srcs := restoreSources(t, snapshotPartitions(t, parts, m, 2))
	ms := &MultiSource{Sources: srcs, Manifest: m}
	got, err := NewFullEngine().RunSource(ms)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "state-independent", canonicalize(got), want)
}

// TestStateMixesWithOtherSources pins locality transparency end to
// end: one partition as deserialized remote state, one streamed from
// disk, one materialized in memory — all under one MultiSource — must
// fold to the flat golden.
func TestStateMixesWithOtherSources(t *testing.T) {
	parts, m := core.Split(ds, 3)
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	states := snapshotPartitions(t, parts, m, 1)
	remote, err := NewFullEngine().RestoreState(states[0])
	if err != nil {
		t.Fatal(err)
	}
	ms := &MultiSource{
		Sources: []Source{
			remote,
			NewDiskSource(c, 1),
			NewDatasetSourceAt(parts[2], m.Partitions[2].Base),
		},
		Manifest: m,
	}
	got, err := NewFullEngine().Workers(2).RunSource(ms)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "state+disk+batch", canonicalize(got), RunAll(ds, 1))
}

// TestStateDeterministicEncoding pins the codec's determinism: the
// same level-one state marshals to identical bytes, and a decoded
// state re-marshals to the original bytes — so states can be content-
// addressed, cached, and diffed across workers.
func TestStateDeterministicEncoding(t *testing.T) {
	parts, m := core.Split(ds, 2)
	a := snapshotPartitions(t, parts, m, 2)
	b := snapshotPartitions(t, parts, m, 3)
	for k := range a {
		if !bytes.Equal(a[k], b[k]) {
			t.Fatalf("partition %d state differs across worker counts", k)
		}
		eng := NewFullEngine()
		world, shards, tables, err := UnmarshalPartitionState(eng.accs, a[k])
		if err != nil {
			t.Fatal(err)
		}
		again, err := MarshalPartitionState(eng.accs, world, shards, tables)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a[k], again) {
			t.Fatalf("partition %d state does not re-marshal to identical bytes", k)
		}
	}

	// A partition held in memory and the same partition spilled to a
	// store snapshot to identical bytes: the scheduler compares a local
	// fallback's state with a remote worker's byte for byte.
	parts, m = core.Split(ds, 3)
	dir := t.TempDir()
	if err := core.WriteCorpus(dir, parts, m); err != nil {
		t.Fatal(err)
	}
	c, err := core.OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		for k, p := range parts {
			mem, err := NewFullEngine().Workers(w).Snapshot(NewDatasetSourceAt(p, m.Partitions[k].Base))
			if err != nil {
				t.Fatal(err)
			}
			disk, err := NewFullEngine().Workers(w).Snapshot(NewDiskSource(c, k))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mem, disk) {
				t.Fatalf("workers=%d partition %d: in-memory state differs from the spilled partition's", w, k)
			}
		}
	}
}

// TestStateEnvelopeRejections pins the envelope's validation: version
// ahead of the reader, fingerprint mismatches, and structural lies all
// error with diagnostics instead of folding garbage.
func TestStateEnvelopeRejections(t *testing.T) {
	eng := NewFullEngine()
	state, err := eng.Snapshot(NewDatasetSource(tinyDS(t)))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(env *wirePartitionState)) []byte {
		var env wirePartitionState
		if err := cbor.Unmarshal(state, &env); err != nil {
			t.Fatal(err)
		}
		f(&env)
		out, err := cbor.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := map[string][]byte{
		"future version": mutate(func(e *wirePartitionState) { e.Version = StateVersion + 1 }),
		"fingerprint":    mutate(func(e *wirePartitionState) { e.Accs[3] = "T9" }),
		"missing world":  mutate(func(e *wirePartitionState) { e.World = nil }),
		"shard count":    mutate(func(e *wirePartitionState) { e.Shards = e.Shards[:5] }),
		"negative count": mutate(func(e *wirePartitionState) { e.World.Users = -1 }),
		"dup tables":     mutate(func(e *wirePartitionState) { e.Tables.Vals = append(e.Tables.Vals, e.Tables.Vals[0]) }),
	}
	for name, data := range cases {
		if _, _, _, err := UnmarshalPartitionState(eng.accs, data); err == nil {
			t.Errorf("%s: hostile envelope decoded without error", name)
		}
	}
}

// tinyDS builds a minimal corpus that still exercises every
// accumulator (labels with known and unknown sources, feed gens,
// domains, handle updates).
func tinyDS(t *testing.T) *core.Dataset {
	t.Helper()
	parts, _ := generatedParts(t)
	return parts[0]
}

// TestShardCodecBounds pins the per-accumulator id validation: shard
// states whose interned ids escape the partition's own tables must
// fail decode — the level-two fold indexes remap slices with them.
func TestShardCodecBounds(t *testing.T) {
	bounds := StateBounds{URIs: 4, Vals: 3, ExtraSrcs: 1}
	cases := []struct {
		name string
		acc  Accumulator
		wire any
	}{
		{"section6 applied past vals", section6Acc{}, &wireSection6{AppliedSeen: make([]bool, 5)}},
		{"section6 firstSrc past uris", section6Acc{}, &wireSection6{FirstSrc: make([]int32, 5), MultiSrc: make([]bool, 5)}},
		{"section6 ragged multiSrc", section6Acc{}, &wireSection6{FirstSrc: make([]int32, 2), MultiSrc: make([]bool, 1)}},
		{"section6 pair uri", section6Acc{}, &wireSection6{Pairs: []wirePairState{{URI: 9, Val: 0}}}},
		{"section6 pair val", section6Acc{}, &wireSection6{Pairs: []wirePairState{{URI: 0, Val: 7}}}},
		{"section6 extra src", section6Acc{}, &wireSection6{Pairs: []wirePairState{{URI: 0, Val: 0, Src: -4}}}},
		{"table4 mask past uris", table4Acc{}, &wireTable4{KindMask: make([]byte, 5), Objects: make([]int64, 4), Values: make([][]int64, 4)}},
		{"table4 kinds", table4Acc{}, &wireTable4{Objects: make([]int64, 3), Values: make([][]int64, 4)}},
		{"table4 values past vals", table4Acc{}, &wireTable4{Objects: make([]int64, 4), Values: [][]int64{make([]int64, 9), nil, nil, nil}}},
		{"reaction values past vals", reactionAcc{}, &wireReaction{PerLab: []wireLabAgg{{Values: make([]int64, 9)}}}},
		{"reaction extra positive", reactionAcc{}, &wireReaction{Extra: []wireExtraAgg{{ID: 3}}}},
		{"reaction extra past table", reactionAcc{}, &wireReaction{Extra: []wireExtraAgg{{ID: -5}}}},
		{"figure6 perVal past vals", figure6Acc{}, &wireFigure6{PerVal: make([]wireValAgg, 9)}},
		{"figure6 seen uri", figure6Acc{}, &wireFigure6{Seen: []wirePairState{{URI: 11, Val: 0}}}},
		{"figure7 negative creator", figure7Acc{}, &wireFigure7{FGs: []wireFGGrowth{{Creator: -2}}}},
		{"figure11 negative creator", figure11Acc{}, &wireFigure11{Creators: []wireCreator{{Idx: -1}}}},
		{"figure11 degree overflow", figure11Acc{}, &wireFigure11{MaxDeg: 1 << 50}},
		{"figure11 too many bins", figure11Acc{}, &wireFigure11{InBins: make([]int64, maxLogBins+1)}},
	}
	for _, tc := range cases {
		data, err := cbor.Marshal(tc.wire)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		if _, err := tc.acc.UnmarshalShard(data, bounds); err == nil {
			t.Errorf("%s: out-of-bounds shard state decoded without error", tc.name)
		}
	}
}

// TestPartitionStateHostileBytes is the always-on cousin of
// FuzzPartitionState: deterministic corruptions of a valid state —
// truncations, bit flips, garbage — must error or decode cleanly,
// never panic or index out of range in the subsequent fold.
func TestPartitionStateHostileBytes(t *testing.T) {
	eng := NewFullEngine()
	state, err := eng.Snapshot(NewDatasetSource(tinyDS(t)))
	if err != nil {
		t.Fatal(err)
	}
	tryFold(t, eng, state) // the pristine state must fold cleanly
	for _, cut := range []int{0, 1, 7, len(state) / 2, len(state) - 1} {
		tryFold(t, eng, state[:cut])
	}
	// 64 deterministic single-byte corruptions spread across the state
	// (each surviving decode pays a full fold, so sample, don't sweep).
	for i := 0; i < 64; i++ {
		pos := (len(state) - 1) * i / 63
		mutated := append([]byte(nil), state...)
		mutated[pos] ^= 0x5A
		tryFold(t, eng, mutated)
	}
	tryFold(t, eng, []byte("BSKYPART definitely not cbor"))
}

// tryFold decodes (possibly hostile) state bytes and, when decode
// succeeds, pushes the result through a full level-two fold and
// render — the surfaces a hostile state could crash.
func tryFold(t *testing.T, eng *Engine, state []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("hostile state bytes panicked: %v", r)
		}
	}()
	src, err := eng.RestoreState(state)
	if err != nil {
		return // rejected: exactly what hostile bytes should get
	}
	ms := &MultiSource{Sources: []Source{src}}
	if _, err := NewFullEngine().RunSource(ms); err != nil {
		return
	}
}

// FuzzPartitionState hammers the state decoder + fold with mutated
// envelopes, in the spirit of FuzzPartitionReader.
func FuzzPartitionState(f *testing.F) {
	eng := NewFullEngine()
	parts, m := core.Split(ds, 2)
	state, err := eng.Workers(1).Snapshot(NewDatasetSourceAt(parts[0], m.Partitions[0].Base))
	if err != nil {
		f.Fatal(err)
	}
	if len(state) > 1<<16 {
		state = state[:1<<16] // keep the corpus small; truncation is a valid hostile input
	}
	f.Add(state)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := eng.RestoreState(data)
		if err != nil {
			return
		}
		ms := &MultiSource{Sources: []Source{src}}
		_, _ = NewFullEngine().RunSource(ms)
	})
}

// generatedParts returns a small independent-partition corpus shared
// by the state tests (generated once).
var generatedOnce = sync.OnceValues(func() ([]*core.Dataset, *core.Manifest) {
	return synth.GeneratePartitioned(synth.Config{Scale: 2000, Seed: 7}, 3)
})

func generatedParts(t *testing.T) ([]*core.Dataset, *core.Manifest) {
	t.Helper()
	return generatedOnce()
}
