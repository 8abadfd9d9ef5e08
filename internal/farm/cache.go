package farm

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a concurrency-safe LRU memo cache keyed by canonical job
// fingerprints. A capacity of 0 means unbounded.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*list.Element
	order    *list.List // front = most recently used
	hits     uint64
	misses   uint64
}

type cacheEntry[K comparable, V any] struct {
	key K
	val V
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Hits, Misses uint64
	Len, Cap     int
}

// NewCache returns an empty cache holding at most capacity entries
// (0 = unbounded).
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		entries:  map[K]*list.Element{},
		order:    list.New(),
	}
}

// Get looks a key up, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes a key, evicting the least recently used
// entry when over capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry[K, V]{key: k, val: v})
	if c.capacity > 0 && c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry[K, V]).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the hit/miss counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Len: c.order.Len(), Cap: c.capacity}
}

// Entries returns a copy of the cache contents (values are shared).
func (c *Cache[K, V]) Entries() map[K]V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[K]V, len(c.entries))
	for k, el := range c.entries {
		out[k] = el.Value.(*cacheEntry[K, V]).val
	}
	return out
}

// Fill bulk-loads entries (e.g. from a snapshot) without touching the
// hit/miss counters. Iteration order is map order; with a bounded cache
// smaller than len(m) an arbitrary subset survives.
func (c *Cache[K, V]) Fill(m map[K]V) {
	for k, v := range m {
		c.Put(k, v)
	}
}

// snapshot is the on-disk JSON envelope.
type snapshot[V any] struct {
	Version int          `json:"version"`
	Entries map[string]V `json:"entries"`
}

// snapshotVersion guards the on-disk format; bump it when the key
// derivation or the value encoding changes incompatibly.
// History: 2 = the canonical test fingerprint became invariant under
// thread permutation and location renumbering (v1 keys never match it).
const snapshotVersion = 2

// ErrSnapshotVersion reports a snapshot written by an incompatible
// build. Callers should treat it as a cold start (the next
// SaveSnapshot overwrites the stale file) but may want to surface it —
// silently re-verifying everything surprises users expecting a warm
// cache.
var ErrSnapshotVersion = errors.New("incompatible snapshot version")

// EncodeSnapshot marshals a string-keyed cache in the snapshot envelope.
func EncodeSnapshot[V any](c *Cache[string, V]) ([]byte, error) {
	data, err := json.Marshal(snapshot[V]{Version: snapshotVersion, Entries: c.Entries()})
	if err != nil {
		return nil, fmt.Errorf("farm: encoding snapshot: %w", err)
	}
	return data, nil
}

// DecodeSnapshot merges snapshot bytes (from EncodeSnapshot or a
// SaveSnapshot file) into the cache. Merge semantics are Fill's:
// last-write-wins per key, keys absent from the snapshot untouched — so
// loading two overlapping snapshots keeps the union, with the second
// load winning on the overlap. An incompatible envelope satisfies
// errors.Is(err, ErrSnapshotVersion).
func DecodeSnapshot[V any](data []byte, c *Cache[string, V]) error {
	var snap snapshot[V]
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("farm: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("farm: snapshot has version %d, want %d: %w", snap.Version, snapshotVersion, ErrSnapshotVersion)
	}
	c.Fill(snap.Entries)
	return nil
}

// SaveSnapshot writes a string-keyed cache to path as JSON, atomically
// (write to a temp file in the same directory, then rename).
func SaveSnapshot[V any](path string, c *Cache[string, V]) error {
	data, err := EncodeSnapshot(c)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".farm-snapshot-*")
	if err != nil {
		return fmt.Errorf("farm: writing snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("farm: writing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("farm: writing snapshot: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("farm: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("farm: writing snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot merges a JSON snapshot into the cache. A missing file is
// reported via os.IsNotExist on the returned error.
func LoadSnapshot[V any](path string, c *Cache[string, V]) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := DecodeSnapshot(data, c); err != nil {
		return fmt.Errorf("%w (%s)", err, path)
	}
	return nil
}
