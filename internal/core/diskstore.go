package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"
)

// This file implements the disk-backed partition store: a corpus
// persisted as one block file per partition plus a JSON manifest
// sidecar, so corpora larger than memory generate, ship, and evaluate
// partition by partition (DESIGN.md §8).
//
// Layout of a store directory:
//
//	manifest.json   versioned envelope around the core.Manifest
//	part-00000.cbor partition 0's block file
//	part-00001.cbor ...
//
// A block file is a stream of framed record blocks carrying labels
// inline — on the live wire labels travel on labeler-stream frames,
// but a disk partition is self-contained:
//
//	"BSKYPART"  8-byte magic
//	uint32      format version (big-endian)
//	frames      uint32 payload length | uint32 CRC-32C checksum | payload
//	end frame   length 0, checksum 0
//
// Every frame payload is one columnar record block (columnar.go): a
// one-byte codec tag, blockCodecColumnar3, then the block. The tag may
// additionally carry the blockCodecLZ bit: the rest of the payload is
// then a uvarint raw length plus an LZ stream (lz.go) that
// decompresses to the untagged inner payload.
//
// The explicit end frame makes truncation detectable even when a file
// is cut exactly at a frame boundary; the per-frame checksum catches
// bit rot before the block decoder sees it. Readers stream one block
// at a time and never materialize a partition, which is what gives the
// out-of-core evaluation its O(one block) residency per partition.

// DiskFormatVersion is the partition store format: columnar record
// blocks in CRC-32C-checksummed frames, optionally LZ-compressed per
// frame. It is the only format this build reads or writes. Every store
// is synthetic and regenerates from its (seed, scale), so a store
// written at an older version is not converted: OpenCorpus and the
// block readers reject it with a *FormatVersionError, and the fix is
// to re-spill it.
const DiskFormatVersion = 3

// FormatVersionError reports a store manifest or partition block file
// that declares a format version other than DiskFormatVersion.
type FormatVersionError struct {
	Version int
}

func (e *FormatVersionError) Error() string {
	return fmt.Sprintf("core: partition format version %d not supported (this build reads only v%d); re-spill the store", e.Version, DiskFormatVersion)
}

// Frame payload codec tags. The values 0x01 and 0x02 belonged to
// retired block formats and are rejected like any unknown tag.
const (
	blockCodecColumnar3 = 0x03 // columnar encoding (columnar.go)
	// blockCodecLZ is OR'd onto the codec tag: the payload after the
	// tag is `uvarint raw length | LZ stream` and decompresses to the
	// inner codec's untagged payload.
	blockCodecLZ = 0x40
)

// DiskBlockRecords is the default number of records per on-disk block.
const DiskBlockRecords = 4096

// partitionMagic opens every partition block file.
const partitionMagic = "BSKYPART"

// partitionHeaderLen is the magic plus the big-endian uint32 version.
const partitionHeaderLen = len(partitionMagic) + 4

// ManifestFile is the name of the manifest sidecar in a store directory.
const ManifestFile = "manifest.json"

// maxBlockBytes bounds a frame's declared payload length; anything
// larger is treated as corruption rather than attempted.
const maxBlockBytes = 1 << 28

// PartitionFileName returns the canonical block-file name of
// partition k within a store directory.
func PartitionFileName(k int) string { return fmt.Sprintf("part-%05d.cbor", k) }

// manifestEnvelope versions the manifest sidecar. Readers require the
// exact format string and version DiskFormatVersion.
type manifestEnvelope struct {
	Format   string    `json:"format"`
	Version  int       `json:"version"`
	Manifest *Manifest `json:"manifest"`
}

// manifestFormat identifies the sidecar's schema family.
const manifestFormat = "blueskies/partition-store"

// WriteManifest writes the manifest sidecar into dir.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(manifestEnvelope{
		Format:   manifestFormat,
		Version:  DiskFormatVersion,
		Manifest: m,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode manifest: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, ManifestFile), append(data, '\n'), 0o644)
}

// ReadManifest reads and validates the manifest sidecar in dir.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	var env manifestEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: decode manifest: %w", err)
	}
	if env.Format != manifestFormat {
		return nil, fmt.Errorf("core: %s is not a partition-store manifest (format %q)", ManifestFile, env.Format)
	}
	if env.Version != DiskFormatVersion {
		return nil, &FormatVersionError{Version: env.Version}
	}
	if env.Manifest == nil || len(env.Manifest.Partitions) == 0 {
		return nil, fmt.Errorf("core: manifest describes no partitions")
	}
	return env.Manifest, nil
}

// PartitionWriter streams framed record blocks to one partition file
// (or any byte sink). Every byte written is also folded into a content
// hash — the per-partition content address the scheduler keys worker
// block caches by (ContentHash).
type PartitionWriter struct {
	w      *bufio.Writer
	h      hash.Hash
	closer io.Closer
	err    error
}

// CreatePartition creates (truncating) the block file at path and
// writes the format header.
func CreatePartition(path string) (*PartitionWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	pw, err := NewPartitionWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	pw.closer = f
	return pw, nil
}

// NewPartitionWriter wraps an already-open byte sink, writing the
// format header. CreatePartition is the file-path convenience; Close
// only closes sinks opened by this package.
func NewPartitionWriter(w io.Writer) (*PartitionWriter, error) {
	h := sha256.New()
	pw := &PartitionWriter{w: bufio.NewWriterSize(io.MultiWriter(w, h), 1<<16), h: h}
	var hdr [partitionHeaderLen]byte
	copy(hdr[:], partitionMagic)
	binary.BigEndian.PutUint32(hdr[len(partitionMagic):], DiskFormatVersion)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return pw, nil
}

// contentHashLen truncates partition content hashes: 96 bits is far
// beyond collision range for any store while keeping manifests and
// cache keys short.
const contentHashLen = 24

// ContentHash returns the hex content hash of every byte written so
// far; call it after Close for the whole file's address. It is a pure
// function of the file bytes, so identical partition files — however
// their corpora were split or named — share an address.
func (pw *PartitionWriter) ContentHash() string {
	return hex.EncodeToString(pw.h.Sum(nil))[:contentHashLen]
}

// PartitionContentHash addresses an in-memory partition block file the
// way PartitionWriter does while writing one.
func PartitionContentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:contentHashLen]
}

func (pw *PartitionWriter) fail(err error) {
	if pw.err == nil {
		pw.err = err
	}
}

// WriteBlock appends one record block frame.
func (pw *PartitionWriter) WriteBlock(b *RecordBlock) error {
	if pw.err != nil {
		return pw.err
	}
	payload := encodeBlock(b)
	if len(payload) > maxBlockBytes {
		pw.fail(fmt.Errorf("core: disk block of %d bytes exceeds the %d frame bound", len(payload), maxBlockBytes))
		return pw.err
	}
	pw.writeFrame(payload)
	return pw.err
}

// castagnoli is the CRC-32C polynomial table: amd64/arm64 compute
// CRC-32C in hardware, so frame checksums stay off decode profiles.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameChecksum computes a frame payload's checksum.
func frameChecksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

func (pw *PartitionWriter) writeFrame(payload []byte) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], frameChecksum(payload))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		pw.fail(err)
		return
	}
	if _, err := pw.w.Write(payload); err != nil {
		pw.fail(err)
	}
}

// Close writes the end-of-partition frame, flushes, and closes the
// file if this package opened it. The writer must not be used
// afterwards.
func (pw *PartitionWriter) Close() error {
	if pw.err == nil {
		var end [8]byte // length 0, checksum 0
		if _, err := pw.w.Write(end[:]); err != nil {
			pw.fail(err)
		}
	}
	if err := pw.w.Flush(); err != nil {
		pw.fail(err)
	}
	if pw.closer != nil {
		if err := pw.closer.Close(); err != nil {
			pw.fail(err)
		}
	}
	return pw.err
}

// WritePartition streams ds to one block file in the DatasetBlocks
// layout: a header + labeler announcement block first (stream
// consumers need the labeler DID index before the first label), then
// each collection in dataset order, blockRecords records per block
// (≤ 0 uses DiskBlockRecords). The partition is written incrementally
// — no second copy of the dataset is ever held.
func WritePartition(path string, ds *Dataset, blockRecords int) error {
	_, err := WritePartitionContent(path, ds, blockRecords)
	return err
}

// WritePartitionContent is WritePartition returning the written file's
// content hash — what spill paths record as PartitionInfo.ContentHash
// so schedulers can address worker caches by partition content.
func WritePartitionContent(path string, ds *Dataset, blockRecords int) (string, error) {
	pw, err := CreatePartition(path)
	if err != nil {
		return "", err
	}
	if err := writeDatasetBlocks(pw, ds, blockRecords); err != nil {
		pw.Close()
		return "", err
	}
	if err := pw.Close(); err != nil {
		return "", err
	}
	return pw.ContentHash(), nil
}

func writeDatasetBlocks(pw *PartitionWriter, ds *Dataset, blockRecords int) error {
	for b := range DatasetBlocks(ds, blockRecords) {
		if err := pw.WriteBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// DatasetBlocks yields ds as the block sequence of a spilled partition:
// a header + labeler announcement block first, then each collection in
// dataset order, blockRecords records per block (≤ 0 uses
// DiskBlockRecords). The blocks are zero-copy views of ds. Spilling
// writes this sequence and in-memory evaluation ingests it, so both
// see the same layout.
func DatasetBlocks(ds *Dataset, blockRecords int) iter.Seq[*RecordBlock] {
	if blockRecords <= 0 {
		blockRecords = DiskBlockRecords
	}
	return func(yield func(*RecordBlock) bool) {
		if !yield(&RecordBlock{
			Header: &StreamHeader{
				Scale:         ds.Scale,
				WindowStart:   ds.WindowStart,
				WindowEnd:     ds.WindowEnd,
				Firehose:      ds.Firehose,
				NonBskyEvents: ds.NonBskyEvents,
			},
			Labelers: ds.Labelers,
		}) {
			return
		}
		// One chunk loop over every collection, in canonical dataset
		// order — the collection list lives here and nowhere else, so
		// adding a collection to Dataset means adding exactly one row.
		collections := []struct {
			n     int
			block func(lo, hi int) *RecordBlock
		}{
			{len(ds.Users), func(lo, hi int) *RecordBlock { return &RecordBlock{Users: ds.Users[lo:hi]} }},
			{len(ds.Posts), func(lo, hi int) *RecordBlock { return &RecordBlock{Posts: ds.Posts[lo:hi]} }},
			{len(ds.Daily), func(lo, hi int) *RecordBlock { return &RecordBlock{Days: ds.Daily[lo:hi]} }},
			{len(ds.Labels), func(lo, hi int) *RecordBlock { return &RecordBlock{Labels: ds.Labels[lo:hi]} }},
			{len(ds.FeedGens), func(lo, hi int) *RecordBlock { return &RecordBlock{FeedGens: ds.FeedGens[lo:hi]} }},
			{len(ds.Domains), func(lo, hi int) *RecordBlock { return &RecordBlock{Domains: ds.Domains[lo:hi]} }},
			{len(ds.HandleUpdates), func(lo, hi int) *RecordBlock { return &RecordBlock{HandleUpdates: ds.HandleUpdates[lo:hi]} }},
		}
		for _, col := range collections {
			for lo := 0; lo < col.n; lo += blockRecords {
				if !yield(col.block(lo, min(lo+blockRecords, col.n))) {
					return
				}
			}
		}
	}
}

// PartitionReader streams record blocks back out of one block file.
type PartitionReader struct {
	r      *bufio.Reader
	closer io.Closer
}

// NewPartitionReader wraps an already-open block stream, validating the
// format header. OpenPartition is the file-path convenience.
func NewPartitionReader(r io.Reader) (*PartitionReader, error) {
	pr := &PartitionReader{r: bufio.NewReaderSize(r, 1<<16)}
	var hdr [partitionHeaderLen]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: partition header: %w", noEOF(err))
	}
	if err := checkPartitionHeader(hdr[:]); err != nil {
		return nil, err
	}
	return pr, nil
}

// checkPartitionHeader validates a block file's leading bytes: the
// magic, then the format version, which must be DiskFormatVersion.
func checkPartitionHeader(data []byte) error {
	if len(data) < partitionHeaderLen || string(data[:len(partitionMagic)]) != partitionMagic {
		return fmt.Errorf("core: not a partition block file (magic %q)", data[:min(len(data), len(partitionMagic))])
	}
	if v := binary.BigEndian.Uint32(data[len(partitionMagic):]); v != DiskFormatVersion {
		return &FormatVersionError{Version: int(v)}
	}
	return nil
}

// OpenPartition opens the block file at path.
func OpenPartition(path string) (*PartitionReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	pr, err := NewPartitionReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	pr.closer = f
	return pr, nil
}

// noEOF promotes a bare io.EOF to io.ErrUnexpectedEOF: inside a frame
// or header, running out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next returns the next record block, or io.EOF after the
// end-of-partition frame. A file that ends without the end frame
// surfaces io.ErrUnexpectedEOF (truncation); a checksum mismatch or an
// undecodable payload surfaces as an error, never a panic.
func (pr *PartitionReader) Next() (*RecordBlock, error) {
	b, _, err := pr.next(false)
	return b, err
}

// NextDict is Next surfacing the frame's dictionary view alongside the
// block — the zero-rehash ingest fast path's input: analysis folds the
// dictionary into its intern tables once per block instead of
// re-hashing every row (streamIngest.applyColumnar).
func (pr *PartitionReader) NextDict() (*RecordBlock, *DictBlock, error) {
	return pr.next(true)
}

func (pr *PartitionReader) next(wantDict bool) (*RecordBlock, *DictBlock, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("core: partition frame header: %w", noEOF(err))
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if length == 0 {
		if sum != 0 {
			return nil, nil, fmt.Errorf("core: corrupt end-of-partition frame (checksum %#x)", sum)
		}
		// Clean end. Anything after it is not ours to consume: a valid
		// writer stops here, so trailing bytes mean a mangled file.
		if _, err := pr.r.ReadByte(); err == nil {
			return nil, nil, fmt.Errorf("core: trailing data after end-of-partition frame")
		}
		return nil, nil, io.EOF
	}
	if length > maxBlockBytes {
		return nil, nil, fmt.Errorf("core: frame declares %d bytes (bound %d): corrupt length", length, maxBlockBytes)
	}
	// Copy via a growing buffer rather than pre-allocating `length`
	// bytes: a corrupt length then fails on missing data, not on a
	// giant allocation.
	payload, err := readFull(pr.r, int(length))
	if err != nil {
		return nil, nil, fmt.Errorf("core: partition frame payload: %w", err)
	}
	if got := frameChecksum(payload); got != sum {
		return nil, nil, fmt.Errorf("core: block checksum mismatch (frame %#x, payload %#x): corrupt block", sum, got)
	}
	return UnmarshalBlockDict(payload, wantDict)
}

// expandLZPayload decompresses the bytes after an LZ-bit codec tag:
// a uvarint raw length followed by the LZ stream.
func expandLZPayload(body []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(body)
	if n <= 0 || rawLen > maxBlockBytes {
		return nil, fmt.Errorf("core: lz frame: bad raw-length prefix")
	}
	return lzDecompress(body[n:], int(rawLen))
}

// readFull reads exactly n bytes, growing the buffer chunk by chunk so
// a lying length prefix cannot force an n-sized allocation up front.
func readFull(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		off := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, noEOF(err)
		}
	}
	return buf, nil
}

// Close releases the underlying file (a no-op for byte readers).
func (pr *PartitionReader) Close() error {
	if pr.closer != nil {
		return pr.closer.Close()
	}
	return nil
}

// ClearStore removes a previous store's artifacts from dir — the
// manifest sidecar first, then every part-*.cbor block file — so a
// re-spill into the same directory can never mix two corpora: without
// it, stale partitions beyond the new count would survive (failing
// OpenCorpus's cross-check at best, silently blending corpora after a
// partial overwrite at worst). Removing the manifest before the block
// files means a spill interrupted midway leaves no manifest behind,
// and OpenCorpus fails loudly instead of reading a half-written store.
// Non-store files in dir are left untouched; a missing dir is a no-op.
func ClearStore(dir string) error {
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	stale, err := filepath.Glob(filepath.Join(dir, "part-*.cbor"))
	if err != nil {
		return err
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// WriteCorpus persists a partitioned corpus as a store directory: one
// block file per partition plus the manifest sidecar, replacing any
// store previously written there (ClearStore). m may be nil for
// single-corpus row-range partitions (a SharedIndex manifest is
// derived). Partitions are written sequentially; for bounded-memory
// generation straight to disk see synth.GeneratePartitionedTo, which
// never materializes more than one partition per worker.
func WriteCorpus(dir string, parts []*Dataset, m *Manifest) error {
	if len(parts) == 0 {
		return fmt.Errorf("core: refusing to write an empty corpus")
	}
	if m == nil {
		m = BuildManifest(parts, parts[0].Scale, 0, true)
	}
	if len(m.Partitions) != len(parts) {
		return fmt.Errorf("core: manifest describes %d partitions, corpus has %d", len(m.Partitions), len(parts))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ClearStore(dir); err != nil {
		return err
	}
	for k, p := range parts {
		hash, err := WritePartitionContent(filepath.Join(dir, PartitionFileName(k)), p, 0)
		if err != nil {
			return fmt.Errorf("core: write partition %d: %w", k, err)
		}
		m.Partitions[k].ContentHash = hash
	}
	return WriteManifest(dir, m)
}

// Corpus is an opened disk-backed partition store: the parsed manifest
// plus the directory its block files live in. Partitions are opened
// lazily, one reader at a time, so holding a Corpus costs only the
// manifest.
type Corpus struct {
	Dir      string
	Manifest *Manifest
}

// OpenCorpus opens a store directory: parses the manifest sidecar and
// cross-checks it against the block files actually present — a
// manifest or block file at another format version, a missing
// partition file, or a stray extra one all fail here, before any
// traversal starts. A version mismatch surfaces as a
// *FormatVersionError (errors.As).
func OpenCorpus(dir string) (*Corpus, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	for k := range m.Partitions {
		pr, err := OpenPartition(filepath.Join(dir, PartitionFileName(k)))
		if err != nil {
			if fe := (*FormatVersionError)(nil); errors.As(err, &fe) {
				return nil, fmt.Errorf("core: mixed-version store: partition %d: %w", k, err)
			}
			return nil, fmt.Errorf("core: manifest lists %d partitions but partition %d is unreadable: %w", len(m.Partitions), k, err)
		}
		pr.Close()
	}
	extra, err := filepath.Glob(filepath.Join(dir, "part-*.cbor"))
	if err != nil {
		return nil, err
	}
	if len(extra) != len(m.Partitions) {
		return nil, fmt.Errorf("core: manifest lists %d partitions but %d block files present", len(m.Partitions), len(extra))
	}
	return &Corpus{Dir: dir, Manifest: m}, nil
}

// OpenPartition opens partition k's block reader.
func (c *Corpus) OpenPartition(k int) (*PartitionReader, error) {
	if k < 0 || k >= len(c.Manifest.Partitions) {
		return nil, fmt.Errorf("core: partition %d out of range (corpus has %d)", k, len(c.Manifest.Partitions))
	}
	return OpenPartition(filepath.Join(c.Dir, PartitionFileName(k)))
}

// CompressPartitionBlocks rewrites an in-memory partition block file
// with every frame payload LZ-compressed where that makes it smaller —
// the scheduler's ship form. Frames that do not shrink (or are already
// compressed) are kept as-is, which makes the call idempotent. A file
// whose header is not the current format fails like NewPartitionReader.
func CompressPartitionBlocks(data []byte) ([]byte, error) {
	return mapRawFrames(data, func(payload []byte) ([]byte, error) {
		if len(payload) == 0 || payload[0]&blockCodecLZ != 0 {
			return payload, nil
		}
		comp := lzCompress(payload[1:])
		if comp == nil {
			return payload, nil
		}
		out := make([]byte, 0, 1+binary.MaxVarintLen64+len(comp))
		out = append(out, payload[0]|blockCodecLZ)
		out = binary.AppendUvarint(out, uint64(len(payload)-1))
		out = append(out, comp...)
		if len(out) >= len(payload) {
			return payload, nil
		}
		return out, nil
	})
}

// mapRawFrames rebuilds a block file with each frame payload passed
// through fn, re-checksumming as it goes. Payloads are transformed
// raw — no block decode — so the traversal is pure byte work.
func mapRawFrames(data []byte, fn func(payload []byte) ([]byte, error)) ([]byte, error) {
	if err := checkPartitionHeader(data); err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(data))
	out = append(out, data[:partitionHeaderLen]...)
	pos := partitionHeaderLen
	for {
		if len(data)-pos < 8 {
			return nil, fmt.Errorf("core: partition frame header: %w", io.ErrUnexpectedEOF)
		}
		length := binary.BigEndian.Uint32(data[pos : pos+4])
		sum := binary.BigEndian.Uint32(data[pos+4 : pos+8])
		pos += 8
		if length == 0 {
			if sum != 0 {
				return nil, fmt.Errorf("core: corrupt end-of-partition frame (checksum %#x)", sum)
			}
			if pos != len(data) {
				return nil, fmt.Errorf("core: trailing data after end-of-partition frame")
			}
			var end [8]byte
			return append(out, end[:]...), nil
		}
		if length > maxBlockBytes || int(length) > len(data)-pos {
			return nil, fmt.Errorf("core: frame declares %d bytes: corrupt length", length)
		}
		payload := data[pos : pos+int(length)]
		pos += int(length)
		if got := frameChecksum(payload); got != sum {
			return nil, fmt.Errorf("core: block checksum mismatch (frame %#x, payload %#x): corrupt block", sum, got)
		}
		np, err := fn(payload)
		if err != nil {
			return nil, err
		}
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(np)))
		binary.BigEndian.PutUint32(hdr[4:], frameChecksum(np))
		out = append(out, hdr[:]...)
		out = append(out, np...)
	}
}

// ReadPartition materializes partition k as a Dataset — the convenience
// inverse of WritePartition for tools and tests; the out-of-core
// evaluation path (analysis.DiskSource) streams blocks instead.
func (c *Corpus) ReadPartition(k int) (*Dataset, error) {
	pr, err := c.OpenPartition(k)
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	ds := &Dataset{}
	for {
		b, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return ds, nil
		}
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", k, err)
		}
		if h := b.Header; h != nil {
			ds.Scale = h.Scale
			ds.WindowStart = h.WindowStart
			ds.WindowEnd = h.WindowEnd
			ds.Firehose = h.Firehose
			ds.NonBskyEvents = h.NonBskyEvents
		}
		ds.Labelers = append(ds.Labelers, b.Labelers...)
		ds.Users = append(ds.Users, b.Users...)
		ds.Posts = append(ds.Posts, b.Posts...)
		ds.Daily = append(ds.Daily, b.Days...)
		ds.Labels = append(ds.Labels, b.Labels...)
		ds.FeedGens = append(ds.FeedGens, b.FeedGens...)
		ds.Domains = append(ds.Domains, b.Domains...)
		ds.HandleUpdates = append(ds.HandleUpdates, b.HandleUpdates...)
	}
}
