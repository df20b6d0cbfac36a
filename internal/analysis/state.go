package analysis

import (
	"fmt"
	"strings"

	"blueskies/internal/cbor"
	"blueskies/internal/core"
)

// This file implements the shard-state snapshot layer: one partition's
// level-one-merged evaluation state — its render World, its label
// intern tables, and one merged Shard per registered accumulator —
// serialized as DAG-CBOR so a remote worker can run the level-one
// traversal and ship the result back for the local level-two fold
// (DESIGN.md §9). The split mirrors the engine's existing merge path:
//
//	level one   Source.Run → (World, []Shard, LabelTables)   [anywhere]
//	snapshot    MarshalPartitionState / UnmarshalPartitionState [wire]
//	level two   MultiSource.fold                              [local]
//
// A decoded state behaves exactly like the in-process triple under the
// fold — StateSource replays it as a Source, so remote partitions
// compose under MultiSource like disk, batch, and stream partitions
// do. Decoding validates every table-indexed id against the state's
// own intern-table sizes (StateBounds), so hostile wire bytes surface
// as errors, never as out-of-range indexing during the fold.

// StateVersion is the current partition-state wire format. Readers
// reject versions newer than they understand; adding optional fields
// is backward-compatible (the CBOR struct decoder ignores unknown
// keys), so the version only bumps on incompatible layout changes.
const StateVersion = 1

// wireWorld is the serialized render context. The corpus-level facts
// and the labeler enumeration ride in a core.RecordBlock (the same
// codec stream frames and disk blocks use); the follower-degree column
// and per-collection record counts travel alongside, since a remote
// fold needs them without the materialized users.
type wireWorld struct {
	Block         []byte  `cbor:"block"`
	Users         int     `cbor:"users,omitempty"`
	Posts         int     `cbor:"posts,omitempty"`
	Days          int     `cbor:"days,omitempty"`
	Labels        int     `cbor:"labels,omitempty"`
	FeedGens      int     `cbor:"feedGens,omitempty"`
	Domains       int     `cbor:"domains,omitempty"`
	HandleUpdates int     `cbor:"handleUpdates,omitempty"`
	Followers     []int32 `cbor:"followers,omitempty"`
}

// wireTables is the serialized label intern tables. Ids are positional
// (URIs[i] has id i, ExtraSrcs[k] has id -2-k), so the slices are the
// whole state; decode rebuilds the lookup maps.
type wireTables struct {
	URIs      []string `cbor:"uris,omitempty"`
	Vals      []string `cbor:"vals,omitempty"`
	ExtraSrcs []string `cbor:"extraSrcs,omitempty"`
}

// wirePartitionState is the versioned envelope around one partition's
// serialized level-one state. Accs fingerprints the accumulator set
// (each accumulator's report ids, in registration order), so a state
// produced by a worker running a different evaluation fails loudly at
// decode time instead of folding shards into the wrong accumulators.
type wirePartitionState struct {
	Version int         `cbor:"v"`
	Accs    []string    `cbor:"accs,omitempty"`
	World   *wireWorld  `cbor:"world"`
	Tables  *wireTables `cbor:"tables,omitempty"`
	Shards  [][]byte    `cbor:"shards,omitempty"`
}

// accFingerprint identifies an accumulator set across the wire.
func accFingerprint(accs []Accumulator) []string {
	fp := make([]string, 0, len(accs))
	for _, a := range accs {
		fp = append(fp, strings.Join(a.IDs(), ","))
	}
	return fp
}

// Fingerprint identifies an accumulator set for protocol handshakes:
// each accumulator's report ids, in registration order. A scheduler
// sends it with an evaluation request; partition states embed it, and
// decode rejects a mismatch.
func Fingerprint(accs []Accumulator) []string { return accFingerprint(accs) }

// Fingerprint identifies this engine's accumulator set.
func (e *Engine) Fingerprint() []string { return accFingerprint(e.accs) }

// MarshalPartitionState serializes one partition's level-one-merged
// state — the (World, []Shard, LabelTables) triple a Source.Run
// returns — for the cross-partition fold on another machine. shards
// must be in accs registration order. The encoding is deterministic:
// identical state yields identical bytes.
func MarshalPartitionState(accs []Accumulator, w *World, shards []Shard, t *LabelTables) ([]byte, error) {
	if len(shards) != len(accs) {
		return nil, fmt.Errorf("analysis: %d shards for %d accumulators", len(shards), len(accs))
	}
	block, err := core.MarshalBlock(&core.RecordBlock{
		Header: &core.StreamHeader{
			Scale:         w.Scale,
			WindowStart:   w.WindowStart,
			WindowEnd:     w.WindowEnd,
			Firehose:      w.Firehose,
			NonBskyEvents: w.NonBskyEvents,
		},
		Labelers: w.Labelers,
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: encode world block: %w", err)
	}
	ws := &wireWorld{
		Block: block,
		Users: w.Users, Posts: w.Posts, Days: w.Days, Labels: w.Labels,
		FeedGens: w.FeedGens, Domains: w.Domains, HandleUpdates: w.HandleUpdates,
		Followers: w.followers,
	}
	env := &wirePartitionState{
		Version: StateVersion,
		Accs:    accFingerprint(accs),
		World:   ws,
		Shards:  make([][]byte, len(accs)),
	}
	if t != nil {
		env.Tables = &wireTables{URIs: t.URIs, Vals: t.Vals, ExtraSrcs: t.ExtraSrcs}
	}
	for ai, a := range accs {
		blob, err := a.MarshalShard(shards[ai])
		if err != nil {
			return nil, fmt.Errorf("analysis: encode %s shard: %w", strings.Join(a.IDs(), ","), err)
		}
		env.Shards[ai] = blob
	}
	data, err := cbor.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("analysis: encode partition state: %w", err)
	}
	return data, nil
}

// UnmarshalPartitionState decodes MarshalPartitionState bytes produced
// for the same accumulator set, validating the version, the
// accumulator fingerprint, and every table-indexed id in the decoded
// shards. Hostile bytes error; they never panic or index out of range.
func UnmarshalPartitionState(accs []Accumulator, data []byte) (*World, []Shard, *LabelTables, error) {
	var env wirePartitionState
	if err := cbor.Unmarshal(data, &env); err != nil {
		return nil, nil, nil, fmt.Errorf("analysis: decode partition state: %w", err)
	}
	if env.Version < 1 || env.Version > StateVersion {
		return nil, nil, nil, fmt.Errorf("analysis: partition state version %d not supported (reader supports ≤ %d)", env.Version, StateVersion)
	}
	fp := accFingerprint(accs)
	if len(env.Accs) != len(fp) {
		return nil, nil, nil, fmt.Errorf("analysis: partition state carries %d accumulators, evaluation registers %d", len(env.Accs), len(fp))
	}
	for i := range fp {
		if env.Accs[i] != fp[i] {
			return nil, nil, nil, fmt.Errorf("analysis: partition state accumulator %d is %q, evaluation registers %q", i, env.Accs[i], fp[i])
		}
	}
	if len(env.Shards) != len(accs) {
		return nil, nil, nil, fmt.Errorf("analysis: partition state carries %d shards for %d accumulators", len(env.Shards), len(accs))
	}
	if env.World == nil {
		return nil, nil, nil, fmt.Errorf("analysis: partition state missing world")
	}
	world, err := worldFromWire(env.World)
	if err != nil {
		return nil, nil, nil, err
	}
	var tables *LabelTables
	bounds := StateBounds{Labelers: len(world.Labelers)}
	if env.Tables != nil {
		tables = newLabelTables()
		for _, s := range env.Tables.URIs {
			tables.internURI(s)
		}
		for _, s := range env.Tables.Vals {
			tables.internVal(s)
		}
		for _, s := range env.Tables.ExtraSrcs {
			tables.internExtraSrc(s)
		}
		if len(tables.URIs) != len(env.Tables.URIs) || len(tables.Vals) != len(env.Tables.Vals) ||
			len(tables.ExtraSrcs) != len(env.Tables.ExtraSrcs) {
			return nil, nil, nil, fmt.Errorf("analysis: partition state intern tables carry duplicate entries")
		}
		bounds.URIs = len(tables.URIs)
		bounds.Vals = len(tables.Vals)
		bounds.ExtraSrcs = len(tables.ExtraSrcs)
	}
	shards := make([]Shard, len(accs))
	for ai, a := range accs {
		sh, err := a.UnmarshalShard(env.Shards[ai], bounds)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("analysis: decode %s shard: %w", strings.Join(a.IDs(), ","), err)
		}
		shards[ai] = sh
	}
	return world, shards, tables, nil
}

func worldFromWire(ws *wireWorld) (*World, error) {
	b, err := core.UnmarshalBlock(ws.Block)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode world block: %w", err)
	}
	w := &World{
		Labelers:      b.Labelers,
		Users:         ws.Users,
		Posts:         ws.Posts,
		Days:          ws.Days,
		Labels:        ws.Labels,
		FeedGens:      ws.FeedGens,
		Domains:       ws.Domains,
		HandleUpdates: ws.HandleUpdates,
		followers:     ws.Followers,
	}
	if w.followers == nil {
		w.followers = []int32{}
	}
	if h := b.Header; h != nil {
		w.Scale = h.Scale
		w.WindowStart = h.WindowStart
		w.WindowEnd = h.WindowEnd
		w.Firehose = h.Firehose
		w.NonBskyEvents = h.NonBskyEvents
	}
	if w.Users < 0 || w.Posts < 0 || w.Days < 0 || w.Labels < 0 ||
		w.FeedGens < 0 || w.Domains < 0 || w.HandleUpdates < 0 {
		return nil, fmt.Errorf("analysis: partition state carries negative record counts")
	}
	return w, nil
}

// Counts reports the per-collection record counts of a decoded world —
// what a scheduler cross-checks against the manifest's promises, the
// way DiskSource binds a block file to its manifest entry.
func (w *World) Counts() core.CollectionCounts {
	return core.CollectionCounts{
		Users: w.Users, Posts: w.Posts, Days: w.Days, Labels: w.Labels,
		FeedGens: w.FeedGens, Domains: w.Domains, HandleUpdates: w.HandleUpdates,
	}
}

// StateSource replays one partition's deserialized level-one state as
// a Source: Run hands the decoded triple straight to the level-two
// fold. Composed under MultiSource it is indistinguishable from the
// partition having been traversed in-process — the property the remote
// scheduler (internal/sched) is built on.
type StateSource struct {
	World  *World
	Shards []Shard
	Tables *LabelTables
}

// Run implements Source.
func (s *StateSource) Run(accs []Accumulator, _ int, _ RenderFunc) (*World, []Shard, *LabelTables, error) {
	if len(accs) != len(s.Shards) {
		return nil, nil, nil, fmt.Errorf("analysis: state source carries %d shards for %d accumulators", len(s.Shards), len(accs))
	}
	return s.World, s.Shards, s.Tables, nil
}

// Snapshot runs the engine's level-one traversal over src (with the
// engine's worker setting) and returns the serialized partition state —
// the remote worker's whole job.
func (e *Engine) Snapshot(src Source) ([]byte, error) {
	world, shards, tables, err := src.Run(e.accs, e.workers, nil)
	if err != nil {
		return nil, err
	}
	return MarshalPartitionState(e.accs, world, shards, tables)
}

// RunLevelOne runs the engine's level-one traversal over src and
// returns the raw (World, []Shard, LabelTables) triple — the
// ingest-side work without any serialization, exported so benchmarks
// and tools can measure the collector/streamIngest path directly.
func (e *Engine) RunLevelOne(src Source) (*World, []Shard, *LabelTables, error) {
	return src.Run(e.accs, e.workers, nil)
}

// RestoreState decodes a Snapshot produced for this engine's
// accumulator set into a Source for the level-two fold.
func (e *Engine) RestoreState(data []byte) (*StateSource, error) {
	world, shards, tables, err := UnmarshalPartitionState(e.accs, data)
	if err != nil {
		return nil, err
	}
	return &StateSource{World: world, Shards: shards, Tables: tables}, nil
}

// ---- codec helpers shared by the accum_* state codecs ----

// marshalState encodes one shard's wire struct.
func marshalState(v any) ([]byte, error) { return cbor.Marshal(v) }

// unmarshalState decodes one shard's wire struct, rejecting trailing
// bytes (cbor.Unmarshal already does) and nil blobs.
func unmarshalState[T any](data []byte) (*T, error) {
	if data == nil {
		return nil, fmt.Errorf("missing shard state")
	}
	out := new(T)
	if err := cbor.Unmarshal(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// trimI64 re-slices away trailing zeros: by-id slices grow to
// whatever intern-table size their worker-merge pattern happened to
// see, so canonical wire state trims the semantically-empty tail
// (decoders and Merge tolerate any shorter length).
func trimI64(s []int64) []int64 {
	for len(s) > 0 && s[len(s)-1] == 0 {
		s = s[:len(s)-1]
	}
	return s
}

// trimBool is trimI64 for seen-flag columns.
func trimBool(s []bool) []bool {
	for len(s) > 0 && !s[len(s)-1] {
		s = s[:len(s)-1]
	}
	return s
}

// checkID validates a non-negative table-indexed id against its bound.
func checkID(kind string, id int32, bound int) error {
	if id < 0 || int(id) >= bound {
		return fmt.Errorf("%s id %d outside table of %d", kind, id, bound)
	}
	return nil
}

// checkLen validates that a by-id slice cannot out-index its remap.
func checkLen(kind string, n, bound int) error {
	if n > bound {
		return fmt.Errorf("%d %s entries exceed the %d-entry intern table", n, kind, bound)
	}
	return nil
}
