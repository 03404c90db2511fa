// Package store is the disk-backed content-addressed result store
// behind the serving layer's memory cache: canonical request hash →
// serialized result bytes (and, under derived keys, auxiliary blobs
// such as Perfetto traces). It exists so that completed simulations
// survive process restarts and can be shared — read and write — by N
// stateless replicas mounted on one volume. The simulator is
// deterministic, so a stored entry is byte-identical to re-running the
// simulation; the store only has to be *honest about corruption*, not
// clever about conflicts: two replicas racing to write the same key
// write identical bytes.
//
// On-disk contract (the invariants the serving layer leans on):
//
//   - One file per key, named by the SHA-256 of the key — content
//     addressing, so keys never need escaping and a directory listing
//     never reveals request contents.
//   - Every file starts with a versioned header (magic, format
//     version, payload length, payload SHA-256). Get re-verifies all
//     four; any mismatch — truncation, bit rot, a future format, a
//     torn write that somehow survived rename — is a MISS, never an
//     error: the entry is deleted and the caller recomputes and
//     rewrites. A corrupt store heals itself.
//   - Writes go to a unique temp file in the same directory, are
//     fsync'd, then renamed into place. Readers therefore see either
//     the old bytes, the new bytes, or nothing — never a torn file.
//   - Total payload bytes are bounded by an LRU budget: Put evicts
//     least-recently-used entries until under budget. Recency across
//     restarts is approximated by file mtime (a write refreshes it);
//     within a process it is exact.
//
// Concurrent replicas: eviction on one replica can delete a file
// another replica is about to read; that read becomes a miss and the
// point is recomputed — safe, just not free. Nothing in the format
// requires cross-process locking.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Format constants. Bump version to orphan (not break) old stores: a
// reader treats any other version as a miss and rewrites.
const (
	magic   = "fgnvmstore"
	version = 1
	// header = magic + version byte + 8-byte payload length + 32-byte
	// payload SHA-256.
	headerSize = len(magic) + 1 + 8 + sha256.Size
)

// Stats is a snapshot of the store's counters and occupancy.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Bytes is the payload bytes currently indexed; Entries the number
	// of stored keys.
	Bytes   int64
	Entries int
}

// Store is a disk-backed content-addressed byte store with an LRU byte
// budget. Safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64 // <= 0: unbounded

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	mu    sync.Mutex
	bytes int64
	// LRU bookkeeping: entries[name] is name's element of order, whose
	// front is the most recently used. name is the content-addressed
	// filename.
	order   *list.List // of *lruEntry
	entries map[string]*list.Element
}

type lruEntry struct {
	name string
	size int64
}

// Open creates (if needed) and indexes the store rooted at dir.
// maxBytes bounds total payload bytes (<= 0 for unbounded). Existing
// entries are indexed by file size and ordered by mtime, oldest = least
// recently used; unreadable or foreign files in dir are ignored (they
// will surface as misses and be repaired on the next Put).
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
	if err := s.index(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// index scans dir and rebuilds the LRU from file mtimes.
func (s *Store) index() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type onDisk struct {
		name  string
		size  int64
		mtime int64
	}
	var files []onDisk
	for _, e := range ents {
		if e.IsDir() || !isEntryName(e.Name()) {
			continue // temp files, strays: not ours to index
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		size := info.Size() - int64(headerSize)
		if size < 0 {
			size = 0 // visibly truncated; Get will delete it
		}
		files = append(files, onDisk{e.Name(), size, info.ModTime().UnixNano()})
	}
	// Oldest first, name as tiebreak, so the rebuild is deterministic
	// for a given directory state.
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		s.touch(f.name, f.size) // ends most-recent = newest mtime
	}
	return nil
}

// isEntryName reports whether name is a content-addressed entry file
// (64 hex chars): everything else in the directory is ignored.
func isEntryName(name string) bool {
	if len(name) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// fileName maps a key to its content-addressed file name.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Get returns the stored payload for key. Any defect — absent,
// truncated, corrupted, or written by a different format version — is
// reported as a miss (and the defective file removed) so the caller
// recomputes and rewrites; Get never fails.
func (s *Store) Get(key string) ([]byte, bool) {
	name := fileName(key)
	raw, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		s.misses.Add(1)
		s.forget(name)
		return nil, false
	}
	payload, ok := decode(raw)
	if !ok {
		// Self-heal: a corrupt entry must not keep costing a read+verify
		// on every lookup.
		os.Remove(filepath.Join(s.dir, name))
		s.misses.Add(1)
		s.forget(name)
		return nil, false
	}
	s.hits.Add(1)
	s.mu.Lock()
	s.touch(name, int64(len(payload)))
	s.mu.Unlock()
	return payload, true
}

// Put stores val under key (overwriting any previous value) and evicts
// least-recently-used entries until the byte budget holds. The write is
// atomic and durable: temp file, fsync, rename.
func (s *Store) Put(key string, val []byte) error {
	name := fileName(key)
	if err := s.writeFile(name, encode(val)); err != nil {
		return err
	}
	s.mu.Lock()
	s.touch(name, int64(len(val)))
	evict := s.collectEvictions(name)
	s.mu.Unlock()
	for _, n := range evict {
		os.Remove(filepath.Join(s.dir, n))
		s.evictions.Add(1)
	}
	return nil
}

// writeFile lands data at name atomically: unique temp file in the
// same directory, fsync, rename, directory fsync (so the rename itself
// survives a crash).
func (s *Store) writeFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// encode frames payload with the versioned header.
func encode(payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = append(out, version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// decode verifies the header and checksum; any defect returns ok=false.
func decode(raw []byte) ([]byte, bool) {
	if len(raw) < headerSize {
		return nil, false // truncated inside the header
	}
	if !bytes.Equal(raw[:len(magic)], []byte(magic)) {
		return nil, false // not ours
	}
	if raw[len(magic)] != version {
		return nil, false // other format version: treat as absent
	}
	n := binary.BigEndian.Uint64(raw[len(magic)+1 : len(magic)+9])
	payload := raw[headerSize:]
	if uint64(len(payload)) != n {
		return nil, false // truncated or padded payload
	}
	var want [sha256.Size]byte
	copy(want[:], raw[len(magic)+9:headerSize])
	if sha256.Sum256(payload) != want {
		return nil, false // bit rot
	}
	return payload, true
}

// touch moves name to the most-recently-used position, inserting it if
// absent and updating the byte total. Caller holds mu (or, during
// Open's index, has exclusive access).
func (s *Store) touch(name string, size int64) {
	if el := s.entries[name]; el != nil {
		e := el.Value.(*lruEntry)
		s.bytes += size - e.size
		e.size = size
		s.order.MoveToFront(el)
		return
	}
	s.entries[name] = s.order.PushFront(&lruEntry{name: name, size: size})
	s.bytes += size
}

// remove drops el from the index and returns its file name. Caller
// holds mu.
func (s *Store) remove(el *list.Element) string {
	e := s.order.Remove(el).(*lruEntry)
	delete(s.entries, e.name)
	s.bytes -= e.size
	return e.name
}

// forget drops name from the index (file already known gone/corrupt).
func (s *Store) forget(name string) {
	s.mu.Lock()
	if el := s.entries[name]; el != nil {
		s.remove(el)
	}
	s.mu.Unlock()
}

// collectEvictions pops least-recently-used entries (never `keep`, the
// entry just written) until the byte budget holds, returning the file
// names to delete. Caller holds mu.
func (s *Store) collectEvictions(keep string) []string {
	if s.maxBytes <= 0 {
		return nil
	}
	var out []string
	for s.bytes > s.maxBytes && s.order.Len() > 0 {
		victim := s.order.Back()
		if victim.Value.(*lruEntry).name == keep {
			break // the newest entry alone exceeds the budget: keep it
		}
		out = append(out, s.remove(victim))
	}
	return out
}

// Stats returns a snapshot of the counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	b, n := s.bytes, len(s.entries)
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
		Bytes:     b,
		Entries:   n,
	}
}

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
