// Package resultstore is the durable, content-addressed result store
// behind the railgate front door: completed experiment renderings are
// spilled to disk keyed by the canonical experiment/params hash the
// engine already computes (photonrail.ExperimentKey), so an identical
// request served by any gateway — including one started after a full
// daemon restart — resolves to the same stored object instead of
// recomputing. The request-level singleflight the daemon applies in
// flight thereby generalizes into cross-restart dedup: same key, same
// bytes, zero new simulations.
//
// Durability contract:
//
//   - writes are atomic: an entry is rendered to a temp file in the
//     store directory and renamed into place, so a crash mid-write
//     leaves either the old object or none — never a torn one (with
//     Fsync set, the file and directory are fsync'd first, so the
//     rename is durable across power loss too);
//   - reads self-heal: a corrupt or unreadable object is dropped and
//     counted, and the caller sees a plain miss;
//   - the store is size-bounded: when the object-byte sum exceeds
//     MaxBytes, least-recently-used objects (by mtime, which Get
//     refreshes) are evicted until it fits, never evicting the object
//     just written.
//
// The store is safe for concurrent use by one process. It deliberately
// holds no cross-process locks: gateways do not share a directory.
package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry is one stored experiment result: the exact bytes each output
// format serves, rendered once by the daemon (or engine) that computed
// it. Serving a stored entry is byte-identical to serving the original
// run by construction.
type Entry struct {
	// Experiment is the registry name that produced the result.
	Experiment string `json:"experiment"`
	// Grid is the executed grid's name for grid experiments.
	Grid string `json:"gridName,omitempty"`
	// Rendered is the aligned-text rendering.
	Rendered string `json:"rendered"`
	// RenderedCSV is the CSV rendering.
	RenderedCSV string `json:"renderedCSV"`
	// RowsJSON is the indented-JSON rendering of the structured rows.
	RowsJSON string `json:"rowsJSON"`
}

// Config parameterizes Open.
type Config struct {
	// Dir is the store directory (required; created if missing).
	Dir string
	// MaxBytes bounds the object-byte sum (0 = unbounded). Eviction is
	// LRU by object mtime; Get refreshes the mtime of the object it
	// serves, so hot results stay resident.
	MaxBytes int64
	// Fsync, when set, fsyncs each object file and the store directory
	// before the rename that publishes it — crash-durable at the cost of
	// one fsync pair per Put. Off by default: the store is a cache, and
	// a lost object is recomputed, not lost data.
	Fsync bool
	// Now, when non-nil, replaces the wall clock (tests pin LRU order
	// with it).
	Now func() time.Time
}

// Stats is the store's serving telemetry, accumulated since Open.
type Stats struct {
	// Hits counts Gets served from disk; Misses counts Gets that found
	// nothing (including corrupt objects dropped by self-healing).
	Hits, Misses uint64
	// Puts counts objects written; Evictions counts objects dropped by
	// the size bound; Errors counts I/O or decode failures (each also
	// surfaces as a miss or failed Put).
	Puts, Evictions, Errors uint64
	// Entries and Bytes describe the resident set.
	Entries int
	Bytes   int64
}

// object is one resident entry's index record.
type object struct {
	size  int64
	mtime time.Time
}

// Store is a durable content-addressed result store; construct with
// Open.
type Store struct {
	dir   string
	max   int64
	fsync bool
	now   func() time.Time

	mu    sync.Mutex
	index map[string]*object
	bytes int64
	stats Stats
}

// Open creates (or reopens) the store rooted at cfg.Dir, rebuilding the
// index from the objects already on disk — the crash/restart recovery
// path. Leftover temp files from interrupted writes are removed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("resultstore: no directory configured")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:   cfg.Dir,
		max:   cfg.MaxBytes,
		fsync: cfg.Fsync,
		now:   cfg.Now,
		index: make(map[string]*object),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			_ = os.Remove(filepath.Join(cfg.Dir, name)) // interrupted write
			continue
		}
		key, ok := strings.CutSuffix(name, objSuffix)
		if !ok || !validKey(key) {
			continue // foreign file; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue // raced a concurrent removal
		}
		s.index[key] = &object{size: info.Size(), mtime: info.ModTime()}
		s.bytes += info.Size()
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	return s, nil
}

const (
	tmpPrefix = ".tmp-"
	objSuffix = ".json"
)

// validKey accepts the lowercase-hex hashes photonrail.ExperimentKey
// produces (and nothing that could traverse paths or collide with temp
// files).
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+objSuffix)
}

// Dir reports the store directory.
func (s *Store) Dir() string { return s.dir }

// Stats reports the store telemetry.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Bytes = s.bytes
	return st
}

// Get returns the entry stored under key, refreshing its recency. A
// corrupt object is removed (self-healing) and reported as a miss.
//
// The file is read and its mtime refreshed outside the store mutex, so
// concurrent hits do not queue behind each other's disk I/O. The index
// record is identified by pointer: a failed read drops the object only
// while the index still holds the record the read started from, so an
// object evicted or replaced by a concurrent Put in the meantime is
// neither dropped nor counted twice.
func (s *Store) Get(key string) (Entry, bool) {
	var obj *object
	s.mu.Lock()
	if validKey(key) {
		obj = s.index[key]
	}
	if obj == nil {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if obj == nil {
		return Entry{}, false
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	var ent Entry
	if err == nil {
		err = json.Unmarshal(data, &ent)
	}
	if err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Misses++
		if s.index[key] == obj {
			// Torn by an external hand or corrupt on disk: drop the
			// object so the next Put rewrites it cleanly. Put renames
			// and re-indexes under the mutex, so a matching record
			// means no Put replaced the file that failed.
			s.dropLocked(key, obj)
			s.stats.Errors++
		}
		return Entry{}, false
	}
	now := s.now()
	touched := os.Chtimes(path, now, now) == nil
	s.mu.Lock()
	if touched && s.index[key] == obj {
		obj.mtime = now
	}
	s.stats.Hits++
	s.mu.Unlock()
	return ent, true
}

// Put stores the entry under key, atomically (write-then-rename), then
// evicts least-recently-used objects if the size bound is exceeded —
// never the object just written.
//
// The temp file is written (and fsynced) outside the store mutex, so
// concurrent Puts and Gets do not queue behind each other's disk I/O.
// Only the rename and the index update share the lock, so the indexed
// size is always the size of the file the last rename published.
func (s *Store) Put(key string, ent Entry) error {
	if !validKey(key) {
		return fmt.Errorf("resultstore: invalid key %q (want the canonical experiment hash)", key)
	}
	data, err := json.Marshal(ent)
	if err != nil {
		return fmt.Errorf("resultstore: encode %s: %w", key, err)
	}
	tmp, err := s.writeTemp(key, data)
	if err == nil {
		err = s.publish(key, tmp, int64(len(data)))
	}
	if err != nil {
		s.mu.Lock()
		s.stats.Errors++
		s.mu.Unlock()
		return err
	}
	s.syncDir()
	return nil
}

// publish renames a written temp file into place and indexes it, then
// evicts — the only part of a Put that holds the mutex.
func (s *Store) publish(key, tmp string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp, s.path(key)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("resultstore: publish %s: %w", key, err)
	}
	if old, ok := s.index[key]; ok {
		s.bytes -= old.size
	}
	s.index[key] = &object{size: size, mtime: s.now()}
	s.bytes += size
	s.stats.Puts++
	s.evictLocked(key)
	return nil
}

// writeTemp renders data to a fresh temp file in the store directory
// (fsynced when configured) and returns its path; on error nothing is
// left behind.
func (s *Store) writeTemp(key string, data []byte) (string, error) {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return "", fmt.Errorf("resultstore: %w", err)
	}
	tmp := f.Name()
	if _, err = f.Write(data); err != nil {
		err = fmt.Errorf("resultstore: write %s: %w", key, err)
	} else if s.fsync {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("resultstore: fsync %s: %w", key, err)
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("resultstore: close %s: %w", key, cerr)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// syncDir makes a published rename durable when fsync is configured.
func (s *Store) syncDir() {
	if !s.fsync {
		return
	}
	if dir, err := os.Open(s.dir); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
}

// dropLocked removes one object from disk and the index.
func (s *Store) dropLocked(key string, obj *object) {
	_ = os.Remove(s.path(key))
	delete(s.index, key)
	s.bytes -= obj.size
}

// evictLocked drops least-recently-used objects (by mtime) until the
// byte sum fits the bound, sparing keep — the eviction contract the
// gateway documents: the store converges to the MaxBytes hottest
// results, and the newest write always survives its own Put.
func (s *Store) evictLocked(keep string) {
	if s.max <= 0 || s.bytes <= s.max {
		return
	}
	type cand struct {
		key string
		obj *object
	}
	cands := make([]cand, 0, len(s.index))
	for key, obj := range s.index { //lint:allow maporder candidates are sorted by mtime (key tiebreak) before use
		if key != keep {
			cands = append(cands, cand{key, obj})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].obj.mtime.Equal(cands[j].obj.mtime) {
			return cands[i].obj.mtime.Before(cands[j].obj.mtime)
		}
		return cands[i].key < cands[j].key
	})
	for _, c := range cands {
		if s.bytes <= s.max {
			return
		}
		s.dropLocked(c.key, c.obj)
		s.stats.Evictions++
	}
}
