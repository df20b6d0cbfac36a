// bskyworker serves partition evaluations to remote schedulers
// (DESIGN.md §9): it receives a partition — a store reference it can
// open locally, or the partition's framed block bytes shipped inline —
// runs the paper's full evaluation engine over it as one level-one
// traversal, and returns the serialized shard state for the
// scheduler's level-two fold.
//
// Usage:
//
//	bskyworker [-listen :8737] [-store-root DIR] [-workers N]
//	          [-cache-dir DIR] [-cache-max-bytes N]
//
// -store-root restricts store-reference requests to directories under
// DIR; without it any local store path is served. -workers fixes the
// accumulator-group count per evaluation (0 = min(GOMAXPROCS,
// #accumulators)).
// -cache-dir enables the content-addressed block cache (DESIGN.md §12):
// shipped partition blocks are kept on disk keyed by manifest
// fingerprint, and the describe response advertises the held keys so a
// warm re-run of the same corpus ships ~zero payload bytes.
// -cache-max-bytes caps the cache; least-recently-used entries are
// evicted past the cap.
//
// Pair it with the scheduler side:
//
//	bskyanalyze -spill /corpora/c1 -partitions 4
//	bskyworker -listen :8737 -store-root /corpora &
//	bskyworker -listen :8738 -store-root /corpora &
//	bskyanalyze -corpus /corpora/c1 -workers-at 127.0.0.1:8737,127.0.0.1:8738
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"

	"blueskies/internal/sched"
)

func main() {
	listen := flag.String("listen", ":8737", "address to serve the worker XRPC API on")
	storeRoot := flag.String("store-root", "", "restrict store-reference requests to stores under this directory (empty = any local path)")
	workers := flag.Int("workers", 0, "accumulator groups per evaluation (0 = min(GOMAXPROCS, #accumulators))")
	cacheDir := flag.String("cache-dir", "", "directory for the content-addressed block cache (empty = caching off)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "block cache size cap in bytes (0 = default)")
	flag.Parse()

	root := *storeRoot
	if root != "" {
		abs, err := filepath.Abs(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bskyworker:", err)
			os.Exit(1)
		}
		root = abs
	}
	srv := &sched.Server{StoreRoot: root, Workers: *workers}
	if *cacheDir != "" {
		cache, err := sched.NewBlockCache(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bskyworker:", err)
			os.Exit(1)
		}
		srv.Cache = cache
		log.Printf("bskyworker: block cache at %s (%d keys warm)", *cacheDir, len(cache.Keys()))
	}
	log.Printf("bskyworker: serving %s on %s (store root %q)", sched.NSIDEvalPartition, *listen, root)
	if err := http.ListenAndServe(*listen, srv.Mux()); err != nil {
		fmt.Fprintln(os.Stderr, "bskyworker:", err)
		os.Exit(1)
	}
}
