package sched

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"blueskies/internal/analysis"
	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/xrpc"
)

// The elastic run: the pull-based placement engine behind evalPartition.
//
// Placement is a shared queue of evaluation units, one per partition,
// ordered by partition index — not an assignment. Each worker runs one
// claim loop: take the first queued unit this worker hasn't already
// failed, evaluate it, deliver, repeat. Fast workers therefore drain
// what slow workers have not reached, with no reassignment, and a
// worker that dies simply stops claiming: its in-flight unit requeues
// for the survivors. A steal is only a claim that overrides a
// delay-scheduling hold (see claim).
//
// Idle workers with nothing left to claim speculate: they re-execute the
// longest-in-flight unit once it has run past the speculation threshold.
// The first valid result wins; because the evaluation is deterministic, a
// late duplicate must be byte-identical to the accepted state — the run
// cross-checks and aborts loudly on divergence, so speculation can never
// silently pick a wrong answer.
//
// Every schedule this machinery can produce — any claim interleaving,
// steals, speculation, worker death, local fallback — yields output
// byte-identical to the local DiskSource golden: results are slotted
// by partition and folded in manifest order, never in arrival order.
//
// Concurrency/memory bound: one eval (plus at most one prefetch push) is
// in flight per worker, and local fallback executors are capped at the
// worker count — so peak resident request bytes stay O(workers ·
// partition), matching the old slot semantics.

// minSpeculateAfter floors the auto speculation threshold so loopback
// tests and fast fleets don't speculate on healthy microsecond evals.
const minSpeculateAfter = 50 * time.Millisecond

// bootstrapStealGrace is the delay-scheduling hold before any eval has
// completed in this run. With no duration baseline the ship cost is the
// only known quantity, so the hold errs long: stealing a unit another
// worker holds cached re-ships megabytes to save an unknown (usually
// small) wait. Once a single eval lands the grace tightens to the
// 3×mean straggler threshold. A dead holder lifts the hold instantly —
// health, not time, gates that path.
const bootstrapStealGrace = 500 * time.Millisecond

// unitRes is one unit's accepted evaluation result. state holds the
// raw wire state for remote results (the cheap byte-equality path when
// a speculative duplicate arrives); local results carry only the
// triple.
type unitRes struct {
	world  *analysis.World
	shards []analysis.Shard
	tables *analysis.LabelTables
	state  []byte
}

// unit is one evaluation unit: one whole partition, and its completion
// latch. All mutable fields are guarded by elasticRun.mu.
type unit struct {
	part int
	info core.PartitionInfo // corpus-global base + records

	queued   bool
	local    bool
	inflight int
	runners  map[int]bool
	failedOn map[int]bool
	cancels  map[int]context.CancelFunc // per-runner attempt cancellation
	started  time.Time                  // first runner's start (speculation age)
	done     bool
	res      *unitRes
	attempts []string

	ch     chan struct{} // closed once the unit resolves or the run fails
	closed bool
}

// closeLocked opens the unit's latch (once).
func (u *unit) closeLocked() {
	if !u.closed {
		u.closed = true
		close(u.ch)
	}
}

// elasticRun is one scheduler run's shared placement state.
type elasticRun struct {
	s       *Scheduler
	accs    []analysis.Accumulator
	workers int
	fp      string // corpus manifest fingerprint (cache key prefix)

	mu     sync.Mutex
	wake   chan struct{}
	units  map[int]*unit // by partition index
	order  []*unit       // every unit, partition-sorted (deterministic scans)
	queue  []*unit       // claimable units, partition-sorted
	localQ []*unit       // units routed to local fallback, partition-sorted
	failed bool
	err    error

	active      []bool // worker claim loop running
	localActive int    // local fallback executors running
	retired     []string
	idleSince   []time.Time // when each worker last went claim-empty

	cacheSeen []bool            // CacheInfo resolution claimed by a loop
	cacheDone []bool            // CacheInfo resolution finished (keys seeded)
	cacheOK   []bool            // worker accepts putBlocks / CacheKey
	cached    []map[string]bool // keys known present per worker
	prefTried []map[string]bool // prefetch keys already attempted
	inflight  map[string]int    // key → worker a prefetch push of it is under way to

	durN   int
	durSum time.Duration
}

func newElasticRun(s *Scheduler, accs []analysis.Accumulator, workers int) *elasticRun {
	n := len(s.Workers)
	r := &elasticRun{
		s:         s,
		accs:      accs,
		workers:   workers,
		fp:        s.Corpus.Manifest.Fingerprint(),
		wake:      make(chan struct{}),
		units:     make(map[int]*unit),
		active:    make([]bool, n),
		retired:   make([]string, n),
		idleSince: make([]time.Time, n),
		cacheSeen: make([]bool, n),
		cacheDone: make([]bool, n),
		cacheOK:   make([]bool, n),
		cached:    make([]map[string]bool, n),
		prefTried: make([]map[string]bool, n),
		inflight:  make(map[string]int),
	}
	for i := range r.cached {
		r.cached[i] = make(map[string]bool)
		r.prefTried[i] = make(map[string]bool)
	}
	return r
}

// signalLocked wakes every waiter (idle claim loops) once.
func (r *elasticRun) signalLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

func (r *elasticRun) wakeChan() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wake
}

// evalPartition registers (once) and awaits one partition's result —
// RemoteSource.Run's whole implementation.
func (r *elasticRun) evalPartition(part int) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	r.mu.Lock()
	u := r.registerLocked(part)
	r.mu.Unlock()
	<-u.ch
	r.mu.Lock()
	defer r.mu.Unlock()
	if !u.done {
		return nil, nil, nil, r.err // the latch opens unresolved only when the run fails
	}
	return u.res.world, u.res.shards, u.res.tables, nil
}

// registerLocked creates the partition's unit, enqueues it, and starts
// whatever executors can serve it.
func (r *elasticRun) registerLocked(part int) *unit {
	if u, ok := r.units[part]; ok {
		return u
	}
	u := &unit{
		part:     part,
		info:     r.s.Corpus.Manifest.Partitions[part],
		runners:  make(map[int]bool),
		failedOn: make(map[int]bool),
		cancels:  make(map[int]context.CancelFunc),
		ch:       make(chan struct{}),
	}
	r.units[part] = u
	if r.failed {
		u.closeLocked()
		return u
	}
	r.order = insertByPart(r.order, u)
	r.queue = insertByPart(r.queue, u)
	u.queued = true
	r.reapLocked()
	r.ensureWorkersLocked()
	r.signalLocked()
	return u
}

// insertByPart inserts u keeping the slice partition-sorted.
func insertByPart(q []*unit, u *unit) []*unit {
	i := sort.Search(len(q), func(i int) bool { return q[i].part >= u.part })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = u
	return q
}

func removeUnit(q []*unit, u *unit) []*unit {
	for i, v := range q {
		if v == u {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// ensureWorkersLocked starts a claim loop for every healthy worker
// that doesn't have one running.
func (r *elasticRun) ensureWorkersLocked() {
	if r.failed {
		return
	}
	for wi := range r.s.Workers {
		if r.active[wi] || !r.s.isHealthy(wi) {
			continue
		}
		r.active[wi] = true
		go r.workerLoop(wi)
	}
}

// ensureLocalLocked starts local fallback executors (capped at the
// worker count, minimum one — the old fallback concurrency bound).
func (r *elasticRun) ensureLocalLocked() {
	capN := max(1, len(r.s.Workers))
	for r.localActive < capN && r.localActive < len(r.localQ) {
		r.localActive++
		go r.localLoop()
	}
}

// reapLocked routes every queued unit that no healthy worker can still
// serve to the local fallback (or fails the run under NoFallback).
// Called after registrations and retirements.
func (r *elasticRun) reapLocked() {
	var stranded []*unit
	for _, u := range r.queue {
		if !r.eligibleLocked(u) {
			stranded = append(stranded, u)
		}
	}
	for _, u := range stranded {
		r.queue = removeUnit(r.queue, u)
		u.queued = false
		r.routeLocked(u)
	}
}

// eligibleLocked reports whether some healthy worker can still take u.
func (r *elasticRun) eligibleLocked(u *unit) bool {
	for wi := range r.s.Workers {
		if r.s.isHealthy(wi) && !u.failedOn[wi] {
			return true
		}
	}
	return false
}

// routeLocked sends an exhausted unit to the local fallback, or fails
// the run when the fallback is disabled.
func (r *elasticRun) routeLocked(u *unit) {
	if r.failed || u.done || u.local {
		return
	}
	if r.s.NoFallback {
		r.failLocked(fmt.Errorf("sched: partition %d failed on every worker: %s",
			u.part, strings.Join(r.unitAttemptsLocked(u), "; ")))
		return
	}
	u.local = true
	r.localQ = insertByPart(r.localQ, u)
	r.s.event("fallback", "-", u.part, "degrading to local out-of-core evaluation (no healthy workers left for it)")
	r.ensureLocalLocked()
}

// unitAttemptsLocked summarizes why every worker is out for u: its own
// failed attempts plus run-level retirement reasons for workers the
// unit never reached.
func (r *elasticRun) unitAttemptsLocked(u *unit) []string {
	out := append([]string(nil), u.attempts...)
	for wi, w := range r.s.Workers {
		if !u.failedOn[wi] && !r.s.isHealthy(wi) && r.retired[wi] != "" {
			out = append(out, fmt.Sprintf("%s: %s", w.Name(), r.retired[wi]))
		}
	}
	if len(out) == 0 {
		out = append(out, "no workers configured")
	}
	return out
}

// failLocked aborts the run: every partition latch opens, every
// executor drains out on its next claim.
func (r *elasticRun) failLocked(err error) {
	if r.failed {
		return
	}
	r.failed = true
	r.err = err
	for _, u := range r.units {
		u.closeLocked()
	}
	r.signalLocked()
}

func (r *elasticRun) failRun(err error) {
	r.mu.Lock()
	r.failLocked(err)
	r.mu.Unlock()
}

func (r *elasticRun) runFailed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// drain blocks until no evaluation is in flight, then reports the
// run's failure state. RunAll calls it after the fold: a speculative
// duplicate still running when every partition has resolved must be
// cross-checked before the results are handed out — divergence fails
// the run, never slips past it. The wait is short: losing runners are
// canceled at deliver time, so a ctx-aware transport returns at once,
// and a transport that ignores cancellation finishes one in-flight
// evaluation per worker at most (the queue is empty by then) and has
// its result cross-checked.
func (r *elasticRun) drain() error {
	for {
		r.mu.Lock()
		if r.failed {
			err := r.err
			r.mu.Unlock()
			return err
		}
		busy := false
		for _, u := range r.order {
			if u.inflight > 0 {
				busy = true
				break
			}
		}
		ch := r.wake
		r.mu.Unlock()
		if !busy {
			return nil
		}
		<-ch
	}
}

// retire takes worker wi out of the run (first caller logs).
func (r *elasticRun) retire(wi int, reason string) {
	if r.s.markUnhealthy(wi) {
		r.s.event("retire", r.s.Workers[wi].Name(), -1, "%s", reason)
		r.mu.Lock()
		r.retired[wi] = reason
		r.reapLocked()
		r.signalLocked()
		r.mu.Unlock()
	}
}

// ---- the claim loop ----

func (r *elasticRun) workerLoop(wi int) {
	ctx := context.Background()
	if r.s.ShipBlocks {
		r.resolveCache(ctx, wi)
	}
	for {
		u, spec, wait, exit := r.claim(wi)
		if exit {
			r.deactivate(wi)
			return
		}
		if u == nil {
			select {
			case <-r.wakeChan():
			case <-time.After(wait):
			}
			continue
		}
		r.execute(ctx, wi, u, spec)
	}
}

// deactivate marks the claim loop stopped and re-checks: if claimable
// work appeared between the last claim and this flag flip, restart.
func (r *elasticRun) deactivate(wi int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active[wi] = false
	if r.failed || !r.s.isHealthy(wi) {
		return
	}
	for _, u := range r.queue {
		if !u.failedOn[wi] {
			r.active[wi] = true
			go r.workerLoop(wi)
			return
		}
	}
}

// claim picks this worker's next action: a queued unit (pulled in
// partition order, preferring units whose payload this worker already
// caches), a speculative duplicate of a straggling in-flight unit, a
// timed wait, or loop exit when this worker can never help again.
func (r *elasticRun) claim(wi int) (u *unit, spec bool, wait time.Duration, exit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed || !r.s.isHealthy(wi) {
		return nil, false, 0, true
	}
	var pick *unit
	if r.cacheOK[wi] {
		// Warm affinity: a unit this worker holds cached costs zero ship
		// bytes here but a full payload anywhere else — claim it first.
		for _, cand := range r.queue {
			if !cand.failedOn[wi] && r.cached[wi][r.unitKey(cand)] {
				pick = cand
				break
			}
		}
	}
	held, stolen := false, false
	if pick == nil {
		// Delay scheduling: a unit cached on another healthy worker
		// ships zero bytes there but a full payload here, so leave it
		// to its holder — until this worker has idled past the steal
		// grace, when latency beats the ship bytes (the holder is the
		// straggler now).
		graceOver := !r.idleSince[wi].IsZero() && time.Since(r.idleSince[wi]) >= r.stealGraceLocked() //lint:walltime delay-scheduling steal grace; placement only, never corpus bytes
		// Until every healthy worker's cache description resolves, any
		// candidate might be cached on a peer whose keys haven't landed
		// yet — hold them all (the grace bounds the wait, so a hung
		// describe can't stall the run).
		described := r.describedLocked()
		for _, cand := range r.queue {
			if cand.failedOn[wi] {
				continue
			}
			elsewhere := r.cachedElsewhereLocked(cand, wi)
			if !graceOver && (!described || elsewhere) {
				held = true
				continue
			}
			pick, stolen = cand, elsewhere
			break
		}
	}
	if pick != nil {
		r.idleSince[wi] = time.Time{}
		r.queue = removeUnit(r.queue, pick)
		pick.queued = false
		r.startLocked(pick, wi)
		if stolen {
			// The grace overrode a delay-scheduling hold: this worker
			// takes a unit a healthy peer holds cached (or is being
			// prefetched there), paying the ship bytes for latency.
			r.s.Stats.Steals.Add(1)
			r.s.event("steal", r.s.Workers[wi].Name(), pick.part, "claimed past the steal grace; cached on another worker")
		}
		return pick, false, 0, false
	}
	if r.idleSince[wi].IsZero() {
		r.idleSince[wi] = time.Now() //lint:walltime delay-scheduling steal grace; placement only, never corpus bytes
	}
	if held {
		return nil, false, 20 * time.Millisecond, false
	}
	// Nothing claimable. Any unit still in play for this worker?
	pending := false
	for _, cand := range r.order {
		if cand.done || cand.local {
			continue
		}
		if cand.inflight > 0 || !cand.failedOn[wi] {
			pending = true
			break
		}
	}
	if !pending {
		return nil, false, 0, true
	}
	target, soonest := r.specTargetLocked(wi)
	if target != nil {
		r.startLocked(target, wi)
		r.s.Stats.Speculations.Add(1)
		r.s.event("speculate", r.s.Workers[wi].Name(), target.part, "in flight %v ≥ threshold; re-executing speculatively",
			time.Since(target.started).Round(time.Millisecond)) //lint:walltime speculation age diagnostics; output stays byte-identical (duplicates are cross-checked)
		return target, true, 0, false
	}
	if soonest <= 0 || soonest > 100*time.Millisecond {
		soonest = 100 * time.Millisecond
	}
	return nil, false, soonest, false
}

func (r *elasticRun) startLocked(u *unit, wi int) {
	if u.inflight == 0 {
		u.started = time.Now() //lint:walltime speculation straggler detection; placement only, never corpus bytes
	}
	u.inflight++
	u.runners[wi] = true
}

// stealGraceLocked is how long a worker must idle before stealing a
// unit another healthy worker holds cached — the same straggler
// threshold speculation uses.
func (r *elasticRun) stealGraceLocked() time.Duration {
	if r.s.SpeculateAfter > 0 {
		return r.s.SpeculateAfter
	}
	if r.durN == 0 {
		return bootstrapStealGrace
	}
	thr := 3 * (r.durSum / time.Duration(r.durN))
	if thr < minSpeculateAfter {
		thr = minSpeculateAfter
	}
	return thr
}

// describedLocked reports whether every healthy worker's cache
// description has finished resolving — before that, peers' cached-key
// sets are blind spots for placement. Store-mode runs never describe
// caches, so they are always "described".
func (r *elasticRun) describedLocked() bool {
	if !r.s.ShipBlocks {
		return true
	}
	for wj := range r.s.Workers {
		if r.s.isHealthy(wj) && !r.cacheDone[wj] {
			return false
		}
	}
	return true
}

// cachedElsewhereLocked reports whether some other healthy worker
// holds u's payload cached, or is being pushed it by a prefetch.
func (r *elasticRun) cachedElsewhereLocked(u *unit, wi int) bool {
	key := r.unitKey(u)
	if wj, ok := r.inflight[key]; ok && wj != wi && r.s.isHealthy(wj) {
		return true
	}
	for wj := range r.s.Workers {
		if wj == wi || !r.s.isHealthy(wj) || !r.cacheOK[wj] {
			continue
		}
		if r.cached[wj][key] {
			return true
		}
	}
	return false
}

// specTargetLocked finds the longest-in-flight unit past the
// speculation threshold that this worker may duplicate, or how long
// until the earliest candidate crosses it.
func (r *elasticRun) specTargetLocked(wi int) (*unit, time.Duration) {
	if r.s.SpeculateAfter < 0 {
		return nil, 0
	}
	thr := r.s.SpeculateAfter
	if thr == 0 {
		if r.durN == 0 {
			return nil, 0 // no completed eval yet: no straggler baseline
		}
		thr = 3 * (r.durSum / time.Duration(r.durN))
		if thr < minSpeculateAfter {
			thr = minSpeculateAfter
		}
	}
	var best *unit
	var soonest time.Duration
	now := time.Now() //lint:walltime speculation straggler detection; placement only, never corpus bytes
	for _, u := range r.order {
		if u.done || u.local || u.inflight == 0 || u.inflight >= 2 {
			continue
		}
		if u.runners[wi] || u.failedOn[wi] {
			continue
		}
		age := now.Sub(u.started)
		if age >= thr {
			if best == nil || u.started.Before(best.started) {
				best = u
			}
		} else if d := thr - age; soonest == 0 || d < soonest {
			soonest = d
		}
	}
	return best, soonest
}

// ---- executing one unit on one worker ----

// evalWorkers is the traversal worker count requests carry.
func (r *elasticRun) evalWorkers() int {
	if r.s.EvalWorkers > 0 {
		return r.s.EvalWorkers
	}
	return r.workers
}

// baseRequest builds the fields every request for u shares.
func (r *elasticRun) baseRequest(u *unit) *EvalRequest {
	return &EvalRequest{
		Version: ProtocolVersion,
		Accs:    analysis.Fingerprint(r.accs),
		Base:    u.info.Base,
		Records: &u.info.Records,
		Workers: r.evalWorkers(),
	}
}

// unitKey addresses the exact payload unit u ships. A manifest that
// records per-partition content hashes keys by them — the same
// partition bytes in any corpus hit the same worker cache entry, so
// re-sharded or re-spilled corpora warm-start across runs. Hashless
// manifests fall back to a manifest-fingerprint-scoped key. The
// format version suffix keeps a persistent cache from serving payloads
// of another format.
func (r *elasticRun) unitKey(u *unit) string {
	prefix := fmt.Sprintf("%s/%d", r.fp, u.part)
	if h := r.s.Corpus.Manifest.Partitions[u.part].ContentHash; h != "" {
		prefix = "c/" + h
	}
	return fmt.Sprintf("%s/v%d", prefix, core.DiskFormatVersion)
}

// shipUnitBlocks builds the framed block payload unit u ships: the
// partition's blocks, LZ-compressed per frame.
func (r *elasticRun) shipUnitBlocks(u *unit) ([]byte, error) {
	blocks, err := ReadPartitionBlocks(r.s.Corpus, u.part)
	if err != nil {
		return nil, fmt.Errorf("sched: read partition %d blocks: %w", u.part, err)
	}
	blocks, err = core.CompressPartitionBlocks(blocks)
	if err != nil {
		return nil, fmt.Errorf("sched: compress partition %d blocks: %w", u.part, err)
	}
	return blocks, nil
}

// execute runs unit u on worker wi: build the request (cache-aware),
// evaluate — overlapping a prefetch push of the next queued unit's
// blocks — re-ship inline on a cache miss, validate, deliver.
func (r *elasticRun) execute(ctx context.Context, wi int, u *unit, spec bool) {
	w := r.s.Workers[wi]
	// Each attempt gets its own cancelable context: when another runner
	// delivers this unit first, the loser is canceled so a straggler's
	// abandoned duplicate never gates RunAll's drain.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.mu.Lock()
	u.cancels[wi] = cancel
	r.mu.Unlock()
	start := time.Now() //lint:walltime eval duration feeds the speculation threshold; placement only
	state, err := r.attempt(ctx, wi, u, false)
	if err != nil {
		if xe, ok := isCacheMiss(err); ok {
			r.s.Stats.CacheMisses.Add(1)
			key := r.unitKey(u)
			r.mu.Lock()
			delete(r.cached[wi], key)
			r.mu.Unlock()
			r.s.event("cache-miss", w.Name(), u.part, "worker cannot serve %s (%s); re-shipping inline", key, xe.Message)
			state, err = r.attempt(ctx, wi, u, true)
		}
	}
	if err != nil {
		_, isFallback := err.(*fallbackError)
		r.mu.Lock()
		superseded := u.done
		r.mu.Unlock()
		if isFallback || superseded || r.runFailed() {
			// Unshippable unit, superseded duplicate (another runner
			// delivered first and canceled this attempt), or the run
			// already failed for a reason of its own: none of these
			// blames the worker. Release the runner; an unshippable unit
			// goes to the local fallback directly.
			r.mu.Lock()
			u.runners[wi] = false
			delete(u.cancels, wi)
			u.inflight--
			if superseded && !isFallback {
				r.s.event("spec-abandon", w.Name(), u.part, "attempt canceled after another runner delivered: %v", err)
			}
			if isFallback && !u.done && !u.queued && u.inflight == 0 {
				r.s.event("ship-skip", w.Name(), u.part, "%s", err.Error())
				r.routeLocked(u)
			}
			r.signalLocked()
			r.mu.Unlock()
			return
		}
		r.unitFailed(wi, u, err.Error())
		return
	}
	world, shards, tables, err := analysis.UnmarshalPartitionState(r.accs, state)
	if err != nil {
		r.unitFailed(wi, u, err.Error())
		return
	}
	if got := world.Counts(); got != u.info.Records {
		r.unitFailed(wi, u, fmt.Sprintf("returned %+v records but the manifest promises %+v", got, u.info.Records))
		return
	}
	dur := time.Since(start) //lint:walltime eval duration feeds the speculation threshold; placement only
	r.deliver(wi, u, &unitRes{world: world, shards: shards, tables: tables, state: state}, dur, spec)
}

// fallbackError routes a unit to local evaluation without blaming the
// worker (oversized ship payloads).
type fallbackError struct{ reason string }

func (e *fallbackError) Error() string { return e.reason }

// attempt performs one evaluation RPC. forceInline bypasses the
// cache-reference path after a miss.
func (r *elasticRun) attempt(ctx context.Context, wi int, u *unit, forceInline bool) ([]byte, error) {
	w := r.s.Workers[wi]
	req := r.baseRequest(u)
	limit := r.s.maxShip()
	keyOnly := false
	shipped := 0
	if r.s.ShipBlocks {
		var key string
		r.mu.Lock()
		if r.cacheOK[wi] {
			key = r.unitKey(u)
			keyOnly = !forceInline && r.cached[wi][key]
		}
		r.mu.Unlock()
		req.CacheKey = key
		if !keyOnly {
			blocks, err := r.shipUnitBlocks(u)
			if err != nil {
				r.failRun(err) // local read/compress failure: the run is wrong, not the worker
				return nil, err
			}
			req.Blocks = blocks
			shipped = len(blocks)
		}
	} else {
		req.Store = r.s.Corpus.Dir
		req.Partition = u.part
	}
	body, err := cbor.Marshal(req)
	if err != nil {
		r.failRun(err)
		return nil, err
	}
	if r.s.ShipBlocks && len(body) > limit {
		if r.s.NoFallback {
			err := fmt.Errorf("sched: partition %d request of %d bytes exceeds the %d-byte ship bound", u.part, len(body), limit)
			r.failRun(err)
			return nil, err
		}
		return nil, &fallbackError{reason: fmt.Sprintf("request (%d bytes) exceeds the %d-byte ship bound; evaluating locally", len(body), limit)}
	}
	if shipped > 0 {
		r.s.Stats.ShippedBytes.Add(int64(shipped))
	}
	type evalOut struct {
		state []byte
		err   error
	}
	done := make(chan evalOut, 1)
	go func() {
		state, err := w.Eval(ctx, body)
		done <- evalOut{state, err}
	}()
	// Overlap the next unit's ship with this evaluation: push its
	// blocks into the worker's cache while the worker computes.
	if r.s.ShipBlocks && !r.s.NoPrefetch && !forceInline {
		r.prefetch(ctx, wi)
	}
	out := <-done
	if out.err != nil {
		return nil, out.err
	}
	if r.s.ShipBlocks && req.CacheKey != "" {
		r.mu.Lock()
		r.cached[wi][req.CacheKey] = true // shipped payloads are cached after use
		r.mu.Unlock()
		if keyOnly {
			r.s.Stats.CacheHits.Add(1)
			r.s.event("cache-hit", w.Name(), u.part, "evaluated from cached %s (0 payload bytes shipped)", req.CacheKey)
		}
	}
	return out.state, nil
}

// isCacheMiss matches the worker's distinguishable cache-miss answer.
func isCacheMiss(err error) (*xrpc.Error, bool) {
	if xe, ok := xrpc.AsError(err); ok && xe.Name == CacheMissName {
		return xe, true
	}
	return nil, false
}

// prefetch pushes the first still-unshipped queued unit's blocks into
// worker wi's cache — at most one push per eval, bounded by the ship
// bound. Failures only cost the optimization: the unit ships
// inline when claimed.
func (r *elasticRun) prefetch(ctx context.Context, wi int) {
	cw, ok := r.s.Workers[wi].(CacheWorker)
	if !ok {
		return
	}
	var target *unit
	var key string
	r.mu.Lock()
	// Bootstrap barrier: until every healthy worker's describe has
	// resolved, the cachedElsewhere check below is blind to keys that
	// worker is about to advertise — a prefetch now could re-ship a
	// payload some peer already holds. Deferring costs nothing; the
	// next attempt prefetches once the descriptions land.
	if r.describedLocked() && r.cacheOK[wi] && !r.failed {
		for _, u := range r.queue {
			if u.failedOn[wi] {
				continue
			}
			k := r.unitKey(u)
			if r.cached[wi][k] || r.prefTried[wi][k] {
				continue
			}
			// Don't burn bytes pushing blocks another healthy worker
			// already holds — affinity will route the unit there. If
			// that worker dies, the steal grace expires and the unit
			// ships inline on whoever claims it.
			if r.cachedElsewhereLocked(u, wi) {
				continue
			}
			// Reserve the key fleet-wide until the push ends, so no
			// peer picks it meanwhile (cachedElsewhereLocked).
			r.prefTried[wi][k] = true
			r.inflight[k] = wi
			target, key = u, k
			break
		}
	}
	r.mu.Unlock()
	if target == nil {
		return
	}
	blocks, err := r.shipUnitBlocks(target)
	pushed := err == nil && len(blocks) <= r.s.maxShip()
	if pushed {
		if err := cw.PutBlocks(ctx, key, blocks); err != nil {
			r.s.event("prefetch", r.s.Workers[wi].Name(), target.part, "push of %s failed: %v", key, err)
			pushed = false
		}
	}
	r.mu.Lock()
	delete(r.inflight, key)
	if pushed {
		r.cached[wi][key] = true
	}
	r.mu.Unlock()
	if !pushed {
		return
	}
	r.s.Stats.Prefetches.Add(1)
	r.s.Stats.ShippedBytes.Add(int64(len(blocks)))
	r.s.event("prefetch", r.s.Workers[wi].Name(), target.part, "shipped %d bytes as %s ahead of claim", len(blocks), key)
}

// resolveCache queries the worker's cache capability and seeds the
// known-cached key set from its describe advertisement.
func (r *elasticRun) resolveCache(ctx context.Context, wi int) {
	r.mu.Lock()
	seen := r.cacheSeen[wi]
	r.cacheSeen[wi] = true
	r.mu.Unlock()
	if seen {
		return
	}
	defer func() {
		r.mu.Lock()
		r.cacheDone[wi] = true
		r.signalLocked()
		r.mu.Unlock()
	}()
	cw, ok := r.s.Workers[wi].(CacheWorker)
	if !ok {
		return
	}
	ci, err := cw.CacheInfo(ctx)
	if err != nil || !ci.Enabled {
		return
	}
	r.mu.Lock()
	r.cacheOK[wi] = true
	for _, k := range ci.Keys {
		r.cached[wi][k] = true
	}
	r.mu.Unlock()
}

// unitFailed records a failed evaluation: the worker retires, the unit
// requeues for the survivors (or routes local once exhausted).
func (r *elasticRun) unitFailed(wi int, u *unit, msg string) {
	w := r.s.Workers[wi]
	if r.s.markUnhealthy(wi) {
		r.s.event("retire", w.Name(), u.part, "%s", msg)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retired[wi] = msg
	u.runners[wi] = false
	delete(u.cancels, wi)
	u.inflight--
	u.failedOn[wi] = true
	u.attempts = append(u.attempts, fmt.Sprintf("%s: %s", w.Name(), msg))
	if !u.done && u.inflight == 0 && !u.queued && !u.local {
		if r.eligibleLocked(u) {
			r.queue = insertByPart(r.queue, u)
			u.queued = true
		} else {
			r.routeLocked(u)
		}
	}
	r.reapLocked()
	r.ensureWorkersLocked()
	r.signalLocked()
}

// deliver accepts one unit result. The first valid result wins; a
// speculative duplicate is cross-checked byte-for-byte against the
// accepted state and any divergence aborts the run — determinism makes
// duplicates free, so a difference can only mean corrupt execution.
func (r *elasticRun) deliver(wi int, u *unit, res *unitRes, dur time.Duration, spec bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if wi >= 0 {
		u.runners[wi] = false
		delete(u.cancels, wi)
		u.inflight--
		r.durN++
		r.durSum += dur
		r.s.Stats.Evals.Add(1)
	} else {
		r.s.Stats.LocalEvals.Add(1)
	}
	if r.failed {
		return
	}
	if u.done {
		equal, err := r.statesEqual(u.res, res)
		if err != nil {
			r.failLocked(fmt.Errorf("sched: partition %d: cross-checking speculative duplicate: %w", u.part, err))
			return
		}
		if !equal {
			r.failLocked(fmt.Errorf("sched: partition %d: speculative duplicate diverged from the accepted state byte-for-byte — nondeterministic evaluation, aborting the run", u.part))
			return
		}
		r.s.Stats.SpecDuplicates.Add(1)
		r.s.event("spec-dup", r.runnerName(wi), u.part, "duplicate result verified byte-identical")
		r.signalLocked()
		return
	}
	u.done = true
	u.res = res
	// Cancel the losing runners: their results are redundant (a loser
	// that completes anyway is still cross-checked above), and waiting
	// out a straggler's abandoned duplicate would gate the drain.
	for _, cancel := range u.cancels {
		cancel()
	}
	if spec {
		r.s.Stats.SpecWins.Add(1)
		r.s.event("spec-win", r.runnerName(wi), u.part, "speculative re-execution finished first")
	}
	u.closeLocked()
	r.signalLocked()
}

func (r *elasticRun) runnerName(wi int) string {
	if wi < 0 {
		return "local"
	}
	return r.s.Workers[wi].Name()
}

// statesEqual cross-checks two results for one unit by their wire
// state bytes; a local result, which carries no raw state, is
// marshaled through the state codec first.
func (r *elasticRun) statesEqual(a, b *unitRes) (bool, error) {
	ca, err := r.canonState(a)
	if err != nil {
		return false, err
	}
	cb, err := r.canonState(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ca, cb), nil
}

func (r *elasticRun) canonState(res *unitRes) ([]byte, error) {
	if res.state != nil {
		return res.state, nil
	}
	return analysis.MarshalPartitionState(r.accs, res.world, res.shards, res.tables)
}

// ---- local fallback executors ----

func (r *elasticRun) localLoop() {
	for {
		r.mu.Lock()
		if r.failed || len(r.localQ) == 0 {
			r.localActive--
			r.mu.Unlock()
			return
		}
		u := r.localQ[0]
		r.localQ = r.localQ[1:]
		r.mu.Unlock()
		world, shards, tables, err := r.localEval(u)
		if err != nil {
			r.failRun(err)
			continue
		}
		r.deliver(-1, u, &unitRes{world: world, shards: shards, tables: tables}, 0, false)
	}
}

// localEval is the out-of-core traversal of one unit — exactly what
// RunAllDisk would do for the partition.
func (r *elasticRun) localEval(u *unit) (*analysis.World, []analysis.Shard, *analysis.LabelTables, error) {
	part := u.part
	rs := &analysis.ReaderSource{
		Open:    func() (*core.PartitionReader, error) { return r.s.Corpus.OpenPartition(part) },
		Base:    u.info.Base,
		Records: &u.info.Records,
		Name:    fmt.Sprintf("partition %d", part),
	}
	return rs.Run(r.accs, r.workers, nil)
}
