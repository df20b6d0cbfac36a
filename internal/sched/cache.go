package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// BlockCache is the worker-side content-addressed store for shipped
// partition block payloads. Keys are opaque to the cache; schedulers
// key by the partition's content hash when the manifest records one
// ("c/<hash>/v<format>", elasticRun.unitKey) — so a payload cached
// during one run satisfies any later run over *any* corpus containing
// the same partition bytes, not just the corpus that shipped it — and
// fall back to a manifest-fingerprint-scoped key for manifests without
// content hashes. Either way the scheduler learns the worker's
// cached keys from describe and sends a key reference instead of the
// bytes, turning a warm re-run's per-partition ship cost into a few
// hundred bytes.
//
// Entries live on disk under Dir (one file per key, named by the
// key's hash) with an FNV-1a checksum over the payload; Get verifies
// the checksum and the embedded key on every read, so a corrupted
// cache file is evicted and surfaces as ErrCacheCorrupt — the worker
// then reports a cache miss and the scheduler re-ships the bytes
// (degrade to ship mode, never serve corrupt blocks). With Dir empty
// the cache is memory-only: same semantics, process lifetime.
//
// MaxBytes bounds the total payload bytes; Put evicts
// least-recently-used entries to fit. 0 means DefaultCacheBytes.
type BlockCache struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	items map[string]*cacheItem
	order []string // LRU order: order[0] is coldest
	total int64
}

// DefaultCacheBytes bounds a BlockCache that doesn't set its own
// limit: room for a few dozen shipped partitions.
const DefaultCacheBytes = 4 << 30

// ErrCacheMiss reports a key not present in the cache.
var ErrCacheMiss = errors.New("sched: block cache miss")

// ErrCacheCorrupt reports a cache entry whose bytes failed
// verification; the entry has been evicted.
var ErrCacheCorrupt = errors.New("sched: block cache entry corrupt")

type cacheItem struct {
	size int64
	data []byte // memory mode only; disk mode reads the file
}

// cacheMagic heads every cache entry file.
var cacheMagic = []byte("BSKYCACH")

// NewBlockCache opens (or creates) a block cache. dir == "" makes a
// memory-only cache. An existing directory is scanned to rebuild the
// index: unreadable or foreign files are skipped, so a damaged cache
// degrades to cold, never fails open.
func NewBlockCache(dir string, maxBytes int64) (*BlockCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &BlockCache{dir: dir, maxBytes: maxBytes, items: make(map[string]*cacheItem)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sched: create cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sched: scan cache dir: %w", err)
	}
	// Rebuild coldest-first by file mtime so eviction order survives a
	// restart; ties break on name for determinism.
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var scanned []found
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".blk") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		key, size, err := readEntryHeader(path)
		if err != nil {
			continue // foreign or truncated file; leave it alone
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		scanned = append(scanned, found{key: key, size: size, mtime: fi.ModTime().UnixNano()})
	}
	sort.Slice(scanned, func(i, j int) bool {
		if scanned[i].mtime != scanned[j].mtime {
			return scanned[i].mtime < scanned[j].mtime
		}
		return scanned[i].key < scanned[j].key
	})
	for _, f := range scanned {
		c.items[f.key] = &cacheItem{size: f.size}
		c.order = append(c.order, f.key)
		c.total += f.size
	}
	return c, nil
}

// entryPath names key's file: content-addressed by the key's hash, so
// hostile keys cannot traverse out of the cache directory.
func (c *BlockCache) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:20])+".blk")
}

// readEntryHeader parses an entry file's magic, key, and payload size
// without reading the payload.
func readEntryHeader(path string) (key string, payload int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	head := make([]byte, len(cacheMagic)+4)
	if _, err := io.ReadFull(f, head); err != nil {
		return "", 0, err
	}
	if string(head[:len(cacheMagic)]) != string(cacheMagic) {
		return "", 0, errors.New("bad magic")
	}
	keyLen := binary.BigEndian.Uint32(head[len(cacheMagic):])
	if keyLen == 0 || keyLen > 4096 {
		return "", 0, errors.New("bad key length")
	}
	kb := make([]byte, keyLen)
	if _, err := io.ReadFull(f, kb); err != nil {
		return "", 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return "", 0, err
	}
	payload = fi.Size() - int64(len(cacheMagic)) - 4 - int64(keyLen) - 8
	if payload < 0 {
		return "", 0, errors.New("truncated entry")
	}
	return string(kb), payload, nil
}

// Put stores blocks under key, evicting cold entries to fit. Oversized
// payloads (bigger than the whole cache) are refused.
func (c *BlockCache) Put(key string, blocks []byte) error {
	if key == "" {
		return errors.New("sched: empty cache key")
	}
	size := int64(len(blocks))
	if size > c.maxBytes {
		return fmt.Errorf("sched: %d-byte payload exceeds the %d-byte cache bound", size, c.maxBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		c.removeLocked(key, old)
	}
	for c.total+size > c.maxBytes && len(c.order) > 0 {
		coldest := c.order[0]
		c.removeLocked(coldest, c.items[coldest])
	}
	it := &cacheItem{size: size}
	if c.dir == "" {
		it.data = append([]byte(nil), blocks...)
	} else {
		if err := c.writeEntry(key, blocks); err != nil {
			return err
		}
	}
	c.items[key] = it
	c.order = append(c.order, key)
	c.total += size
	return nil
}

// writeEntry persists one entry atomically (write temp, rename).
func (c *BlockCache) writeEntry(key string, blocks []byte) error {
	h := fnv.New64a()
	h.Write(blocks)
	buf := make([]byte, 0, len(cacheMagic)+4+len(key)+8+len(blocks))
	buf = append(buf, cacheMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, h.Sum64())
	buf = append(buf, blocks...)
	path := c.entryPath(key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("sched: write cache entry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sched: commit cache entry: %w", err)
	}
	return nil
}

// Get returns key's payload, verifying the stored checksum and key. A
// missing key returns ErrCacheMiss; an entry that fails verification
// is evicted and returns ErrCacheCorrupt (callers treat both as "the
// bytes must be shipped again").
func (c *BlockCache) Get(key string) ([]byte, error) {
	c.mu.Lock()
	it, ok := c.items[key]
	if ok {
		c.touchLocked(key)
	}
	c.mu.Unlock()
	if !ok {
		return nil, ErrCacheMiss
	}
	if c.dir == "" {
		return it.data, nil
	}
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		c.evict(key)
		return nil, fmt.Errorf("%w: %v", ErrCacheCorrupt, err)
	}
	head := len(cacheMagic) + 4
	if len(data) < head+len(key)+8 ||
		string(data[:len(cacheMagic)]) != string(cacheMagic) ||
		binary.BigEndian.Uint32(data[len(cacheMagic):head]) != uint32(len(key)) ||
		string(data[head:head+len(key)]) != key {
		c.evict(key)
		return nil, fmt.Errorf("%w: malformed entry for %s", ErrCacheCorrupt, key)
	}
	sum := binary.BigEndian.Uint64(data[head+len(key) : head+len(key)+8])
	payload := data[head+len(key)+8:]
	h := fnv.New64a()
	h.Write(payload)
	if h.Sum64() != sum {
		c.evict(key)
		return nil, fmt.Errorf("%w: checksum mismatch for %s", ErrCacheCorrupt, key)
	}
	return payload, nil
}

// Has reports whether key is cached (without verifying its bytes).
func (c *BlockCache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Keys lists the cached keys, sorted — what describe advertises.
func (c *BlockCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Bytes reports the total cached payload bytes.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// evict removes key (after a verification failure).
func (c *BlockCache) evict(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.items[key]; ok {
		c.removeLocked(key, it)
	}
}

// removeLocked drops one entry from the index, the LRU order, and disk.
func (c *BlockCache) removeLocked(key string, it *cacheItem) {
	delete(c.items, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.total -= it.size
	if c.dir != "" {
		os.Remove(c.entryPath(key))
	}
}

// touchLocked moves key to the warm end of the LRU order.
func (c *BlockCache) touchLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i], c.order[i+1:]...), key)
			return
		}
	}
}
