package castore

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// formatVersion is the on-disk format generation. Every entry file
// starts with a header line naming it, and the root MANIFEST records
// it; bumping it invalidates every persisted entry at Open time, which
// is the clean-slate path for incompatible layout changes. Schema-level
// invalidation (a cache whose payload semantics changed) is cheaper:
// bump that cache's schema label and its old entries simply stop being
// addressed.
const formatVersion = "castore/1"

// manifestName is the version document at the store root.
const manifestName = "MANIFEST"

// manifest is the JSON body of the MANIFEST file.
type manifest struct {
	Format string `json:"format"`
}

// Entry payload encodings recorded in the header line.
const (
	encRaw  = "raw"
	encGzip = "gzip"
)

// Options configures a Disk store.
type Options struct {
	// Compress gzips payloads on write. Reads accept both encodings
	// regardless (the per-entry header records which was used), so the
	// setting can change between runs without invalidating anything.
	Compress bool
	// MaxBytes bounds the total payload bytes on disk; 0 means
	// unbounded. When a Put pushes the store over the bound, the
	// oldest entries (by modification time) are evicted until it
	// fits. The bound is size-based rather than LRU because entries
	// are written once and read by content hash: recency of *reads*
	// carries no signal worth an mtime write per Get, while total
	// size is the resource a shared cache directory actually
	// exhausts.
	MaxBytes int64
}

// Disk is the persistent backend: one file per key under
// root/<schema>/<key>, written via temp file + atomic rename so
// concurrent readers (including other processes) never observe a
// partial entry. Each file carries a "castore/1 <schema> <encoding>"
// header line validated on read; anything that fails validation is
// counted as a corruption, deleted, and reported as a miss.
type Disk struct {
	root string
	opts Options

	flight *flight
	ctr    counters

	// mu guards size accounting and eviction scans. Entry reads and
	// writes themselves need no global lock: content addressing makes
	// writes idempotent and rename makes them atomic.
	mu   sync.Mutex
	size int64
}

// Open opens (creating if needed) a disk store rooted at dir. If the
// directory holds entries from an older on-disk format, they are
// discarded wholesale and the manifest rewritten; foreign files at the
// root that castore does not recognize are left alone.
func Open(dir string, opts Options) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: create root: %w", err)
	}
	s := &Disk{root: dir, opts: opts, flight: newFlight()}
	if err := s.checkManifest(); err != nil {
		return nil, err
	}
	s.size = s.scanSize()
	return s, nil
}

// checkManifest enforces the format generation: absent → write it,
// matching → proceed, mismatched → drop all schema directories (the
// only thing castore owns) and rewrite.
func (s *Disk) checkManifest() error {
	path := filepath.Join(s.root, manifestName)
	data, err := os.ReadFile(path)
	if err == nil {
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr == nil && m.Format == formatVersion {
			return nil
		}
		// Unreadable or foreign-format manifest: every entry under
		// this root is suspect. Start over.
		entries, rerr := os.ReadDir(s.root)
		if rerr != nil {
			return fmt.Errorf("castore: scan root: %w", rerr)
		}
		for _, e := range entries {
			if e.IsDir() {
				if rerr := os.RemoveAll(filepath.Join(s.root, e.Name())); rerr != nil {
					return fmt.Errorf("castore: invalidate old format: %w", rerr)
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("castore: read manifest: %w", err)
	}
	doc, err := json.Marshal(manifest{Format: formatVersion})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("castore: write manifest: %w", err)
	}
	return nil
}

// scanSize totals the size of all entry files (skipping dot-prefixed
// temp leftovers and the manifest).
func (s *Disk) scanSize() int64 {
	var total int64
	for _, e := range s.listEntries() {
		total += e.size
	}
	return total
}

type diskEntry struct {
	path    string
	size    int64
	modTime int64 // unix nanos, eviction order
}

// listEntries walks root/<schema>/<key> files, ignoring temp files and
// anything that is not a valid schema/key path.
func (s *Disk) listEntries() []diskEntry {
	var out []diskEntry
	schemas, err := os.ReadDir(s.root)
	if err != nil {
		return nil
	}
	for _, sd := range schemas {
		if !sd.IsDir() || !validName(sd.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, sd.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !validName(f.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, diskEntry{
				path:    filepath.Join(s.root, sd.Name(), f.Name()),
				size:    info.Size(),
				modTime: info.ModTime().UnixNano(),
			})
		}
	}
	return out
}

func (s *Disk) entryPath(schema, key string) string {
	return filepath.Join(s.root, schema, key)
}

// Get returns the payload for (schema, key). A file that exists but
// fails header or payload validation is counted as a corruption,
// deleted so the next Put rewrites it, and reported as a miss.
func (s *Disk) Get(schema, key string) ([]byte, bool) {
	if err := checkNames(schema, key); err != nil {
		s.ctr.misses.Add(1)
		return nil, false
	}
	path := s.entryPath(schema, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.ctr.misses.Add(1)
		return nil, false
	}
	data, err := decodeEntry(raw, schema)
	if err != nil {
		s.ctr.corruptions.Add(1)
		s.ctr.misses.Add(1)
		s.dropEntry(path, int64(len(raw)))
		return nil, false
	}
	s.ctr.hits.Add(1)
	return data, true
}

// decodeEntry validates the header line and decodes the payload.
func decodeEntry(raw []byte, schema string) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("castore: entry missing header")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 3 || fields[0] != formatVersion {
		return nil, fmt.Errorf("castore: bad entry header")
	}
	if fields[1] != schema {
		return nil, fmt.Errorf("castore: entry schema %q, want %q", fields[1], schema)
	}
	payload := raw[nl+1:]
	switch fields[2] {
	case encRaw:
		return payload, nil
	case encGzip:
		return gunzip(payload)
	default:
		return nil, fmt.Errorf("castore: unknown encoding %q", fields[2])
	}
}

// Pooled gzip codecs. A fresh gzip.Writer allocates about 800 KB of
// flate state and a fresh gzip.Reader about 50 KB, against entry
// payloads of a few KB, so Put and Get reuse them: Reset restores a
// codec to exactly its freshly constructed state, so entry bytes are
// identical to a new codec's. The pools hold at most what concurrent
// callers had in use at once, and the runtime drops codecs left idle
// across garbage collections.
var (
	gzipWriters sync.Pool // *gzip.Writer
	gzipReaders sync.Pool // *gzip.Reader
)

// gzipBytes returns data gzip-compressed at the default level.
func gzipBytes(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, _ := gzipWriters.Get().(*gzip.Writer)
	if zw == nil {
		zw = gzip.NewWriter(&buf)
	} else {
		zw.Reset(&buf)
	}
	defer gzipWriters.Put(zw)
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gunzip decompresses a gzip payload, verifying its checksum and size.
func gunzip(payload []byte) ([]byte, error) {
	src := bytes.NewReader(payload)
	zr, _ := gzipReaders.Get().(*gzip.Reader)
	var err error
	if zr == nil {
		zr, err = gzip.NewReader(src)
	} else {
		err = zr.Reset(src)
	}
	if err != nil {
		return nil, err
	}
	defer gzipReaders.Put(zr)
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return data, nil
}

// dropEntry removes a corrupt entry file and updates size accounting.
func (s *Disk) dropEntry(path string, size int64) {
	if err := os.Remove(path); err == nil {
		s.mu.Lock()
		s.size -= size
		if s.size < 0 {
			s.size = 0
		}
		s.mu.Unlock()
	}
}

// Put persists data under (schema, key) atomically: header + payload
// into a dot-prefixed temp file in the same directory, fsync-free
// rename into place. A crash between the two leaves only an ignorable
// temp file, never a partial entry.
func (s *Disk) Put(schema, key string, data []byte) error {
	if err := checkNames(schema, key); err != nil {
		return err
	}
	dir := filepath.Join(s.root, schema)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("castore: create schema dir: %w", err)
	}

	enc := encRaw
	payload := data
	if s.opts.Compress {
		var err error
		if payload, err = gzipBytes(data); err != nil {
			return err
		}
		enc = encGzip
	}
	header := fmt.Sprintf("%s %s %s\n", formatVersion, schema, enc)

	tmp, err := os.CreateTemp(dir, ".tmp-"+key+"-*")
	if err != nil {
		return fmt.Errorf("castore: create temp: %w", err)
	}
	name := tmp.Name()
	_, werr := tmp.WriteString(header)
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		if werr != nil {
			return fmt.Errorf("castore: write entry: %w", werr)
		}
		return fmt.Errorf("castore: close entry: %w", cerr)
	}
	path := s.entryPath(schema, key)
	prev, _ := os.Stat(path)
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("castore: commit entry: %w", err)
	}
	s.ctr.puts.Add(1)

	written := int64(len(header) + len(payload))
	s.mu.Lock()
	if prev != nil {
		s.size -= prev.Size()
	}
	s.size += written
	if s.opts.MaxBytes > 0 && s.size > s.opts.MaxBytes {
		s.evictLocked(path)
	}
	s.mu.Unlock()
	return nil
}

// evictLocked removes oldest-mtime entries until the store fits
// MaxBytes, sparing the just-written file so a Put can never evict its
// own entry. Called with s.mu held.
func (s *Disk) evictLocked(spare string) {
	entries := s.listEntries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].modTime < entries[j].modTime })
	// Recount from the scan: accounting drift (external deletion,
	// sibling processes) heals here rather than accumulating.
	var total int64
	for _, e := range entries {
		total += e.size
	}
	s.size = total
	for _, e := range entries {
		if s.size <= s.opts.MaxBytes {
			break
		}
		if e.path == spare {
			continue
		}
		if err := os.Remove(e.path); err != nil {
			continue
		}
		s.size -= e.size
		s.ctr.evictions.Add(1)
	}
}

// Do returns the payload for (schema, key), filling on a miss under a
// per-key lock so concurrent callers — within this process — fill
// once. (Cross-process duplicate fills are harmless: both write the
// same bytes and rename is atomic.)
func (s *Disk) Do(schema, key string, fill func() ([]byte, error)) ([]byte, bool, error) {
	if err := checkNames(schema, key); err != nil {
		return nil, false, err
	}
	unlock := s.flight.lock(schema + "/" + key)
	defer unlock()
	if data, ok := s.Get(schema, key); ok {
		return data, true, nil
	}
	data, err := fill()
	if err != nil {
		return nil, false, err
	}
	if err := s.Put(schema, key, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Disk) Stats() Stats { return s.ctr.snapshot() }
