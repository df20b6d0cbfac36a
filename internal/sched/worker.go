package sched

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"blueskies/internal/analysis"
	"blueskies/internal/cbor"
	"blueskies/internal/core"
	"blueskies/internal/xrpc"
)

// The worker half of the remote-evaluation protocol (DESIGN.md §9).
// A worker serves one XRPC procedure: it receives a partition — either
// a store reference it can open locally or the partition's framed
// block bytes shipped inline — runs the engine's level-one
// traversal over it, and returns the serialized shard state for the
// scheduler's level-two fold. cmd/bskyworker wraps Server in a daemon;
// Loopback executes the same handler in-process (both request and
// state still pass through their wire codecs, so a loopback run
// exercises exactly the remote path minus the socket).

// Protocol method NSIDs.
const (
	// NSIDDescribe is the health/identity query.
	NSIDDescribe = "blueskies.worker.describe"
	// NSIDEvalPartition is the partition-evaluation procedure: CBOR
	// EvalRequest in, CBOR partition state (analysis.StateVersion) out.
	NSIDEvalPartition = "blueskies.worker.evalPartition"
	// NSIDPutBlocks pushes one partition's block payload into the
	// worker's content-addressed cache ahead of evaluation — the
	// prefetch half of the elastic scheduler.
	NSIDPutBlocks = "blueskies.worker.putBlocks"
)

// CacheMissName is the xrpc error name a worker answers with when an
// evaluation references a cache key it cannot serve (never cached,
// evicted, or failed verification). Schedulers match on the name and
// re-ship the bytes inline — a cache miss retires no one.
const CacheMissName = "CacheMiss"

// ContentTypeCBOR labels the protocol's request and response bodies.
const ContentTypeCBOR = "application/cbor"

// ProtocolVersion is the evalPartition request format. Workers reject
// versions newer than they understand; new optional fields don't bump
// it (the CBOR struct decoder ignores unknown keys).
const ProtocolVersion = 1

// MaxShipBytes bounds one shipped partition's framed block bytes — the
// worker-side request body limit.
const MaxShipBytes = 256 << 20

// EvalRequest is the evalPartition input: which partition to evaluate,
// where its blocks live, and the corpus placement the level-two fold
// assumes. Exactly one of Store (a partition store directory the
// worker can reach) or Blocks (the partition's framed block-file
// bytes, magic and all) must be set.
type EvalRequest struct {
	Version   int      `cbor:"v"`
	Accs      []string `cbor:"accs,omitempty"`
	Store     string   `cbor:"store,omitempty"`
	Partition int      `cbor:"part,omitempty"`
	Blocks    []byte   `cbor:"blocks,omitempty"`
	// Base offsets the partition's record blocks into corpus index
	// space; Records, when set, is the manifest's record-count promise
	// the worker cross-checks after the traversal.
	Base    core.CollectionCounts  `cbor:"base"`
	Records *core.CollectionCounts `cbor:"records,omitempty"`
	// Workers is the traversal worker count (0 = the server's default).
	Workers int `cbor:"workers,omitempty"`
	// CacheKey names the partition payload in the worker's block cache
	// (elasticRun.unitKey: content hash or manifest fingerprint, plus
	// the format version).
	// With inline Blocks it asks the worker to cache them after use;
	// alone — no Blocks, no Store — it asks the worker to evaluate
	// straight from its cache, answering CacheMissName when it can't.
	CacheKey string `cbor:"cacheKey,omitempty"`
}

// PutBlocksRequest is the putBlocks input: one partition's framed
// block payload and the content address to store it under.
type PutBlocksRequest struct {
	Version int    `cbor:"v"`
	Key     string `cbor:"key"`
	Blocks  []byte `cbor:"blocks"`
}

// PutBlocksResponse acknowledges a stored payload.
type PutBlocksResponse struct {
	Stored     bool  `json:"stored"`
	CacheBytes int64 `json:"cacheBytes"`
}

// DescribeResponse is the describe query output.
type DescribeResponse struct {
	Evals     int64  `json:"evals"`
	StoreRoot string `json:"storeRoot,omitempty"`
	// CacheEnabled reports whether the worker runs a block cache
	// (accepts putBlocks and CacheKey-only evaluations).
	CacheEnabled bool `json:"cacheEnabled,omitempty"`
	// Cached lists the cache's content-address keys, sorted — how a
	// scheduler learns which partitions it can skip shipping.
	Cached []string `json:"cached,omitempty"`
	// CacheBytes is the cache's current payload volume.
	CacheBytes int64 `json:"cacheBytes,omitempty"`
}

// Server evaluates partitions for remote schedulers. The evaluation is
// always the paper's full engine (analysis.NewFullEngine); the request
// fingerprint guards against a scheduler expecting a different set.
type Server struct {
	// StoreRoot, when set, restricts store-reference requests to
	// directories under it; block-shipping requests are unaffected.
	StoreRoot string
	// Workers is the per-evaluation accumulator-group count requests
	// inherit when they don't set their own (0 = min(GOMAXPROCS,
	// #accumulators)).
	Workers int
	// Cache, when set, is the worker's content-addressed block cache:
	// shipped payloads carrying a CacheKey are stored after use,
	// putBlocks prefetches are accepted, describe advertises the
	// cached keys, and CacheKey-only requests evaluate without any
	// bytes on the wire.
	Cache *BlockCache

	evals atomic.Int64
}

// Evals reports how many partition evaluations completed.
func (s *Server) Evals() int64 { return s.evals.Load() }

// Mux returns the worker's XRPC router, with the body limit raised to
// MaxShipBytes so whole partitions fit.
func (s *Server) Mux() *xrpc.Mux {
	m := xrpc.NewMux()
	m.MaxBodyBytes = MaxShipBytes
	m.Query(NSIDDescribe, func(context.Context, url.Values, []byte) (any, error) {
		return s.Describe(), nil
	})
	m.Procedure(NSIDEvalPartition, func(_ context.Context, _ url.Values, input []byte) (any, error) {
		state, err := s.EvalPartition(input)
		if err != nil {
			return nil, err
		}
		return xrpc.Raw{ContentType: ContentTypeCBOR, Data: state}, nil
	})
	m.Procedure(NSIDPutBlocks, func(_ context.Context, _ url.Values, input []byte) (any, error) {
		return s.PutBlocks(input)
	})
	return m
}

// Describe assembles the describe query's answer.
func (s *Server) Describe() *DescribeResponse {
	dr := &DescribeResponse{Evals: s.Evals(), StoreRoot: s.StoreRoot}
	if s.Cache != nil {
		dr.CacheEnabled = true
		dr.Cached = s.Cache.Keys()
		dr.CacheBytes = s.Cache.Bytes()
	}
	return dr
}

// PutBlocks stores one prefetched partition payload in the cache. The
// payload's frame header is validated (magic + the current format
// version) before storing — the cache never holds bytes that could not
// have come from a partition store; the per-frame checksums are
// verified at evaluation time like any shipped payload.
func (s *Server) PutBlocks(input []byte) (*PutBlocksResponse, error) {
	if s.Cache == nil {
		return nil, xrpc.ErrInvalidRequest("worker runs no block cache")
	}
	var req PutBlocksRequest
	if err := cbor.Unmarshal(input, &req); err != nil {
		return nil, xrpc.ErrInvalidRequest("decode putBlocks request: %v", err)
	}
	if req.Version < 1 || req.Version > ProtocolVersion {
		return nil, xrpc.ErrInvalidRequest("protocol version %d not supported (worker speaks ≤ %d)", req.Version, ProtocolVersion)
	}
	if req.Key == "" {
		return nil, xrpc.ErrInvalidRequest("putBlocks without a cache key")
	}
	if len(req.Blocks) == 0 {
		return nil, xrpc.ErrInvalidRequest("putBlocks without block bytes")
	}
	if pr, err := core.NewPartitionReader(bytes.NewReader(req.Blocks)); err != nil {
		return nil, xrpc.ErrInvalidRequest("payload is not a partition block file: %v", err)
	} else {
		pr.Close()
	}
	if err := s.Cache.Put(req.Key, req.Blocks); err != nil {
		return nil, xrpc.ErrInternal("cache store: %v", err)
	}
	return &PutBlocksResponse{Stored: true, CacheBytes: s.Cache.Bytes()}, nil
}

// EvalPartition decodes one EvalRequest, runs the level-one traversal,
// and returns the serialized partition state.
func (s *Server) EvalPartition(input []byte) ([]byte, error) {
	var req EvalRequest
	if err := cbor.Unmarshal(input, &req); err != nil {
		return nil, xrpc.ErrInvalidRequest("decode eval request: %v", err)
	}
	if req.Version < 1 || req.Version > ProtocolVersion {
		return nil, xrpc.ErrInvalidRequest("protocol version %d not supported (worker speaks ≤ %d)", req.Version, ProtocolVersion)
	}
	eng := analysis.NewFullEngine()
	if fp := eng.Fingerprint(); len(req.Accs) > 0 && !equalStrings(req.Accs, fp) {
		return nil, xrpc.ErrInvalidRequest("scheduler expects accumulators %v, worker runs %v", req.Accs, fp)
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.Workers
	}
	eng.Workers(workers)
	src, err := s.source(&req)
	if err != nil {
		return nil, err
	}
	state, err := eng.Snapshot(src)
	if err != nil {
		return nil, xrpc.ErrInternal("evaluate partition: %v", err)
	}
	if s.Cache != nil && req.CacheKey != "" && len(req.Blocks) > 0 {
		// Cache only after the traversal proved every frame decodes:
		// the cache never holds a payload that failed evaluation. A
		// full cache or dead disk is the scheduler's loss, not an
		// evaluation failure — the state is already computed.
		_ = s.Cache.Put(req.CacheKey, req.Blocks)
	}
	s.evals.Add(1)
	return state, nil
}

// source resolves the request's partition into a block-stream Source.
func (s *Server) source(req *EvalRequest) (analysis.Source, error) {
	switch {
	case len(req.Blocks) > 0 && req.Store != "":
		return nil, xrpc.ErrInvalidRequest("request carries both a store reference and inline blocks")
	case req.Store != "" && req.CacheKey != "":
		return nil, xrpc.ErrInvalidRequest("request carries both a store reference and a cache key")
	case len(req.Blocks) > 0:
		return &analysis.ReaderSource{
			Open: func() (*core.PartitionReader, error) {
				return core.NewPartitionReader(bytes.NewReader(req.Blocks))
			},
			Base:    req.Base,
			Records: req.Records,
			Name:    "streamed blocks",
		}, nil
	case req.Store != "":
		if err := s.allowStore(req.Store); err != nil {
			return nil, err
		}
		c, err := core.OpenCorpus(req.Store)
		if err != nil {
			return nil, xrpc.ErrInvalidRequest("open store %s: %v", req.Store, err)
		}
		if req.Partition < 0 || req.Partition >= len(c.Manifest.Partitions) {
			return nil, xrpc.ErrInvalidRequest("partition %d out of range (store has %d)", req.Partition, len(c.Manifest.Partitions))
		}
		part := req.Partition
		return &analysis.ReaderSource{
			Open:    func() (*core.PartitionReader, error) { return c.OpenPartition(part) },
			Base:    req.Base,
			Records: req.Records,
			Name:    fmt.Sprintf("partition %d of %s", part, req.Store),
		}, nil
	case req.CacheKey != "":
		if s.Cache == nil {
			return nil, xrpc.ErrNamed(http.StatusNotFound, CacheMissName, "worker runs no block cache")
		}
		blocks, err := s.Cache.Get(req.CacheKey)
		if err != nil {
			// Miss and corruption both answer CacheMissName: either way
			// the scheduler must ship the bytes again. Corruption is
			// named in the message so the degrade is loud in logs.
			return nil, xrpc.ErrNamed(http.StatusNotFound, CacheMissName, "cache cannot serve %s: %v", req.CacheKey, err)
		}
		return &analysis.ReaderSource{
			Open: func() (*core.PartitionReader, error) {
				return core.NewPartitionReader(bytes.NewReader(blocks))
			},
			Base:    req.Base,
			Records: req.Records,
			Name:    fmt.Sprintf("cached blocks %s", req.CacheKey),
		}, nil
	default:
		return nil, xrpc.ErrInvalidRequest("request carries neither a store reference, inline blocks, nor a cache key")
	}
}

// allowStore enforces the StoreRoot restriction.
func (s *Server) allowStore(dir string) error {
	if s.StoreRoot == "" {
		return nil
	}
	root := filepath.Clean(s.StoreRoot)
	d := filepath.Clean(dir)
	if d != root && !strings.HasPrefix(d, root+string(filepath.Separator)) {
		return xrpc.ErrInvalidRequest("store %s outside the worker's root %s", dir, root)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Loopback is the in-process worker: Eval runs the Server handler
// directly, so the full request → traversal → serialized-state path is
// exercised without a socket. It is both the test double and the
// single-machine execution mode of `bskyanalyze -workers-at loopback`.
type Loopback struct {
	Server *Server
	// Label distinguishes loopback workers in diagnostics.
	Label string
}

// Name implements Worker.
func (l *Loopback) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return "loopback"
}

// Eval implements Worker.
func (l *Loopback) Eval(_ context.Context, req []byte) ([]byte, error) {
	return l.Server.EvalPartition(req)
}

// CacheInfo implements CacheWorker straight off the server's cache.
func (l *Loopback) CacheInfo(context.Context) (CacheInfo, error) {
	dr := l.Server.Describe()
	return CacheInfo{Enabled: dr.CacheEnabled, Keys: dr.Cached, Bytes: dr.CacheBytes}, nil
}

// PutBlocks implements CacheWorker through the same handler the
// daemon serves, wire codec included.
func (l *Loopback) PutBlocks(_ context.Context, key string, blocks []byte) error {
	body, err := cbor.Marshal(&PutBlocksRequest{Version: ProtocolVersion, Key: key, Blocks: blocks})
	if err != nil {
		return err
	}
	_, err = l.Server.PutBlocks(body)
	return err
}

// ReadPartitionBlocks reads partition k's framed block-file bytes from
// an opened store — the shipping form for workers that cannot reach
// the store path.
func ReadPartitionBlocks(c *core.Corpus, k int) ([]byte, error) {
	if k < 0 || k >= len(c.Manifest.Partitions) {
		return nil, fmt.Errorf("sched: partition %d out of range (corpus has %d)", k, len(c.Manifest.Partitions))
	}
	return os.ReadFile(filepath.Join(c.Dir, core.PartitionFileName(k)))
}
