// Package sched places the partitions of a disk-backed corpus onto
// evaluation workers and folds their shard state into one report set —
// the remote-evaluation layer of DESIGN.md §9.
//
// The manifest is the placement unit and the partition store the
// shipping form: each partition is handed to a worker (in-process
// Loopback, or a cmd/bskyworker daemon over the XRPC transport) either
// as a store reference the worker opens locally or as its framed
// block-file bytes shipped inline. The worker runs the engine's
// level-one traversal and returns serialized shard state
// (analysis.MarshalPartitionState); the scheduler decodes it into a
// Source, so partitions evaluated remotely compose under
// analysis.MultiSource exactly like disk, batch, and stream partitions
// — and the folded output is byte-identical to the local out-of-core
// run at any worker count.
//
// Placement is elastic (elastic.go): each partition is exactly one
// evaluation unit, and the units sit in one deterministically-ordered
// pull queue that every healthy worker claims from, so a fast worker
// takes the units a slow worker has not reached instead of idling
// behind a static round-robin assignment. Idle workers speculatively
// re-execute straggling in-flight units — the first valid result wins,
// and a late duplicate is cross-checked byte-for-byte against it. In
// ship-blocks mode workers keep a content-addressed BlockCache of
// shipped payloads (cache.go) keyed by manifest fingerprint, so a
// warm re-run sends key references instead of block bytes, and the
// scheduler prefetches the next unit's blocks into the worker's cache
// while the current evaluation runs.
//
// Failure handling: a worker that errors (dead endpoint, rejected
// request, undecodable or mismatched state) is marked unhealthy and
// skipped for the rest of the run; its units requeue for the
// remaining workers and, when every worker has failed one, it falls
// back to the local out-of-core traversal (analysis.DiskSource
// semantics) — so killing a worker mid-run degrades throughput, never
// correctness.
package sched

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/xrpc"
)

// Worker evaluates one partition per call: it receives an encoded
// EvalRequest and returns the partition's serialized shard state.
type Worker interface {
	// Name labels the worker in errors and logs.
	Name() string
	// Eval runs one partition evaluation.
	Eval(ctx context.Context, req []byte) ([]byte, error)
}

// CacheInfo reports a worker's block-cache capability: whether it
// keeps one, which CacheKey values it already holds, and how many
// payload bytes they cover.
type CacheInfo struct {
	Enabled bool
	Keys    []string
	Bytes   int64
}

// CacheWorker is the optional Worker capability for content-addressed
// block caching: the scheduler reads the cache state once per run
// (CacheInfo) and pushes upcoming units' payloads ahead of their claim
// (PutBlocks — the prefetch path). Workers without it always receive
// inline block bytes, which is always correct, just never warm.
type CacheWorker interface {
	CacheInfo(ctx context.Context) (CacheInfo, error)
	PutBlocks(ctx context.Context, key string, blocks []byte) error
}

// DialTimeout bounds one remote partition evaluation end to end.
const DialTimeout = 10 * time.Minute

// xrpcWorker speaks the worker protocol over HTTP.
type xrpcWorker struct {
	name string
	c    *xrpc.Client
}

// Dial returns a Worker for a bskyworker daemon at addr
// ("host:port" or a full http:// base URL).
func Dial(addr string) Worker {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := xrpc.NewClient(base)
	c.HTTPClient.Timeout = DialTimeout
	return &xrpcWorker{name: addr, c: c}
}

func (w *xrpcWorker) Name() string { return w.name }

func (w *xrpcWorker) Eval(ctx context.Context, req []byte) ([]byte, error) {
	return w.c.ProcedureRaw(ctx, NSIDEvalPartition, nil, ContentTypeCBOR, req)
}

// CacheInfo implements CacheWorker via the describe query; a daemon
// without a cache (or predating one) answers with Enabled false.
func (w *xrpcWorker) CacheInfo(ctx context.Context) (CacheInfo, error) {
	var dr DescribeResponse
	if err := w.c.Query(ctx, NSIDDescribe, nil, &dr); err != nil {
		return CacheInfo{}, err
	}
	return CacheInfo{Enabled: dr.CacheEnabled, Keys: dr.Cached, Bytes: dr.CacheBytes}, nil
}

// PutBlocks implements CacheWorker: push one payload into the daemon's
// cache ahead of the evaluation that will reference it.
func (w *xrpcWorker) PutBlocks(ctx context.Context, key string, blocks []byte) error {
	body, err := cbor.Marshal(&PutBlocksRequest{Version: ProtocolVersion, Key: key, Blocks: blocks})
	if err != nil {
		return err
	}
	_, err = w.c.ProcedureRaw(ctx, NSIDPutBlocks, nil, ContentTypeCBOR, body)
	return err
}

// Scheduler places a corpus' partitions onto workers. Construct with
// New; one Scheduler drives one evaluation run's placement (health
// marks are per-run state).
type Scheduler struct {
	// Corpus is the opened local store: the source of shipped blocks,
	// the authority on placement (manifest bases and record counts),
	// and the fallback execution site.
	Corpus *core.Corpus
	// Workers are the placement targets. Every healthy worker claims
	// units from one shared pull queue (elastic.go), so a fast worker
	// drains a slow one's backlog.
	Workers []Worker
	// ShipBlocks streams each partition's framed block bytes inside the
	// request instead of sending a store reference — required when
	// workers cannot reach the store path.
	ShipBlocks bool
	// EvalWorkers fixes the traversal worker count per remote
	// evaluation (0 = inherit the run's worker setting).
	EvalWorkers int
	// NoFallback disables the local out-of-core fallback; a partition
	// every worker failed then fails the run.
	NoFallback bool
	// Logf receives placement diagnostics — a worker being retired, a
	// partition degrading to local evaluation. nil logs via log.Printf:
	// a silently-degraded distributed run must not look like a healthy
	// one. Set to a no-op to silence.
	Logf func(format string, args ...any)

	// SpeculateAfter is how long a unit may stay in flight before an
	// idle worker re-executes it speculatively. 0 picks a threshold
	// automatically (3× the mean completed evaluation, floored so fast
	// fleets never speculate on healthy evals); negative disables
	// speculation.
	SpeculateAfter time.Duration
	// NoPrefetch disables pushing the next unit's block payload into a
	// worker's cache while its current evaluation runs. A prefetched
	// payload is held to the same bound as an inline ship.
	NoPrefetch bool

	// Stats counts this run's placement events; read after RunAll.
	Stats RunStats

	// shipLimit overrides MaxShipBytes (tests); 0 = MaxShipBytes.
	shipLimit int

	initOnce  sync.Once
	unhealthy []atomic.Bool
	// run is the elastic placement state, created by the first
	// partition registration; one Scheduler drives one run.
	runMu sync.Mutex
	run   *elasticRun
}

// RunStats counts one run's placement events. All fields are atomic:
// read them with Load (or format the lot with Summary) after the run.
type RunStats struct {
	// Evals counts remote evaluations accepted; LocalEvals counts
	// units evaluated by the local out-of-core fallback.
	Evals, LocalEvals atomic.Int64
	// Steals counts claims that overrode a delay-scheduling hold: the
	// steal grace expired and the claimer took a unit cached on (or
	// being prefetched to) another healthy worker, so a healthy run
	// reports 0.
	// Speculations counts speculative duplicate launches, SpecWins how
	// many finished first, SpecDuplicates how many late duplicates
	// were cross-checked against an accepted result.
	Steals, Speculations, SpecWins, SpecDuplicates atomic.Int64
	// CacheHits counts evaluations served from a worker's block cache
	// (no payload shipped); CacheMisses counts key references the
	// worker could not serve (the payload re-shipped inline);
	// Prefetches counts payloads pushed ahead of their claim.
	CacheHits, CacheMisses, Prefetches atomic.Int64
	// ShippedBytes totals block payload bytes actually sent (inline
	// ships plus prefetch pushes; cache-hit evaluations add nothing).
	ShippedBytes atomic.Int64
}

// Summary renders the counters on one line.
func (st *RunStats) Summary() string {
	return fmt.Sprintf("evals=%d local=%d steals=%d speculations=%d spec-wins=%d spec-dups=%d cache-hits=%d cache-misses=%d prefetches=%d shipped-bytes=%d",
		st.Evals.Load(), st.LocalEvals.Load(), st.Steals.Load(), st.Speculations.Load(),
		st.SpecWins.Load(), st.SpecDuplicates.Load(),
		st.CacheHits.Load(), st.CacheMisses.Load(), st.Prefetches.Load(), st.ShippedBytes.Load())
}

// init sizes the per-run placement state; lazy so a Scheduler built as
// a struct literal (every configuration field is exported) behaves
// exactly like one from New.
func (s *Scheduler) init() {
	s.initOnce.Do(func() {
		if s.unhealthy == nil {
			s.unhealthy = make([]atomic.Bool, len(s.Workers))
		}
	})
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// event is the one structured diagnostics emitter: every placement
// event logs as `sched: event=<kind> worker=<name> unit=<part>` plus
// a reason, so log consumers match on fields instead of prose. A
// negative part (a run-level event) logs as `unit=-`.
func (s *Scheduler) event(kind, worker string, part int, format string, args ...any) {
	unit := "-"
	if part >= 0 {
		unit = strconv.Itoa(part)
	}
	s.logf("sched: event=%s worker=%s unit=%s: %s", kind, worker, unit, fmt.Sprintf(format, args...))
}

// New builds a scheduler over an opened store and its workers.
func New(c *core.Corpus, workers ...Worker) *Scheduler {
	return &Scheduler{Corpus: c, Workers: workers}
}

// Sources wraps every partition of the corpus as a RemoteSource, in
// manifest order — the placement input to analysis.MultiSource.
func (s *Scheduler) Sources() []analysis.Source {
	out := make([]analysis.Source, 0, len(s.Corpus.Manifest.Partitions))
	for k := range s.Corpus.Manifest.Partitions {
		out = append(out, &RemoteSource{sched: s, part: k})
	}
	return out
}

// RunAll evaluates the whole corpus through the scheduler and returns
// the reports in canonical order — the remote counterpart of
// analysis.RunAllDisk, byte-identical to it by the parity contract.
func (s *Scheduler) RunAll(workers int) ([]*analysis.Report, error) {
	ms := &analysis.MultiSource{Sources: s.Sources(), Manifest: s.Corpus.Manifest}
	reports, err := analysis.NewFullEngine().Workers(workers).RunSource(ms)
	if err != nil {
		return nil, err
	}
	// Every partition has resolved, but a speculative duplicate may
	// still be in flight: its cross-check must happen before results
	// leave the scheduler, so a divergence can still fail the run.
	s.runMu.Lock()
	r := s.run
	s.runMu.Unlock()
	if r != nil {
		if err := r.drain(); err != nil {
			return nil, err
		}
	}
	return analysis.Canonicalize(reports), nil
}

// markUnhealthy retires worker wi for the rest of the run, reporting
// whether this call was the one that flipped it (concurrent partitions
// can discover the same dead worker; only the first logs).
func (s *Scheduler) markUnhealthy(wi int) bool {
	return wi < len(s.unhealthy) && s.unhealthy[wi].CompareAndSwap(false, true)
}

func (s *Scheduler) isHealthy(wi int) bool {
	return wi < len(s.unhealthy) && !s.unhealthy[wi].Load()
}

// maxShip is the effective ship-size bound.
func (s *Scheduler) maxShip() int {
	if s.shipLimit > 0 {
		return s.shipLimit
	}
	return MaxShipBytes
}

// evalPartition places one partition through the run's elastic
// machinery (elastic.go): its unit joins the shared pull queue and
// the call blocks until it resolves. The first registration
// creates the run; the accumulator set and worker count are run-wide
// (every partition of one MultiSource evaluation shares them).
func (s *Scheduler) evalPartition(part int, accs []analysis.Accumulator, workers int) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	s.init()
	s.runMu.Lock()
	if s.run == nil {
		s.run = newElasticRun(s, accs, workers)
	}
	r := s.run
	s.runMu.Unlock()
	return r.evalPartition(part)
}

// RemoteSource is one partition placed through the scheduler. It
// implements analysis.Source, so remote partitions mix with disk,
// batch, and stream partitions under one MultiSource — the locality of
// a partition is invisible above the Source interface.
type RemoteSource struct {
	sched *Scheduler
	part  int
}

// NewRemoteSource wraps one partition of the scheduler's corpus.
func NewRemoteSource(s *Scheduler, part int) *RemoteSource {
	return &RemoteSource{sched: s, part: part}
}

// Run implements analysis.Source.
func (r *RemoteSource) Run(accs []analysis.Accumulator, workers int, _ analysis.RenderFunc) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	return r.sched.evalPartition(r.part, accs, workers)
}

// Offloaded implements analysis.OffloadedSource: the traversal runs on
// a worker, so MultiSource must not spend a local CPU slot waiting on
// it. (The local fallback after total worker loss does burn local CPU
// without a slot — acceptable in an already-degraded run.)
func (r *RemoteSource) Offloaded() bool { return true }
