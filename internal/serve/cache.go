package serve

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/ckptio"
)

// DefaultCacheBytes is the memory tier's byte budget when Config leaves it
// zero: enough for thousands of reports without threatening the engines'
// own working memory.
const DefaultCacheBytes = 64 << 20

// Cache is the content-addressed result cache: an in-memory LRU bounded by
// a byte budget, with an optional disk tier underneath. Disk entries are
// written through internal/ckptio (checksummed envelope, atomic
// temp+fsync+rename), so a crash mid-write or a bit-flipped file reads
// back as a typed validation failure — treated as a miss — rather than as
// a corrupt result.
type Cache struct {
	maxBytes int64
	dir      string // "" disables the disk tier

	mu    sync.Mutex
	bytes int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	memHits, diskHits, misses, evictions, diskErrors int64
	diskSwept, diskSweptBytes                        int64 // startup retention pass
}

// cacheEntry is one LRU node.
type cacheEntry struct {
	key     string
	payload []byte
}

// diskSuffix is the disk tier's result-file suffix; the startup sweep
// only ever touches files carrying it.
const diskSuffix = ".ccres"

// NewCache builds a cache with the given memory budget (<=0:
// DefaultCacheBytes) and optional disk tier directory. The directory is
// created if missing and preflighted with ckptio.PreflightDir, so an
// unwritable cache directory fails service startup instead of every job's
// store-back. diskMaxBytes > 0 bounds the disk tier: a startup retention
// sweep (ckptio.SweepDir) evicts the oldest-written result files until the
// tier fits, so long-lived nodes reclaim space every restart instead of
// growing without limit.
func NewCache(maxBytes int64, dir string, diskMaxBytes int64) (*Cache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{
		maxBytes: maxBytes,
		dir:      dir,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := ckptio.PreflightDir(dir); err != nil {
			return nil, err
		}
		if diskMaxBytes > 0 {
			swept, err := ckptio.SweepDir(dir, diskSuffix, diskMaxBytes)
			if err != nil {
				return nil, err
			}
			c.diskSwept = int64(swept.Removed)
			c.diskSweptBytes = swept.FreedBytes
		}
	}
	return c, nil
}

// diskPath maps a key to its disk-tier file. Keys are lowercase hex, so
// they are safe path components as-is.
func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.dir, key+diskSuffix)
}

// Get returns the cached payload for key. disk reports that the hit came
// from the disk tier (and was promoted into memory). A disk entry that
// passes its CRC but is not a JSON document (written by something other
// than this cache) counts as a disk error and a miss: cached bytes are
// spliced into responses verbatim, so they must be valid JSON.
func (c *Cache) Get(key string) (payload []byte, hit, disk bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.memHits++
		payload = el.Value.(*cacheEntry).payload
		c.mu.Unlock()
		return payload, true, false
	}
	c.mu.Unlock()

	notJSON := false
	if c.dir != "" {
		store := &ckptio.Store{Path: c.diskPath(key), Keep: 1}
		data, _, err := store.Load()
		if err == nil && json.Valid(data) {
			c.mu.Lock()
			c.diskHits++
			c.insertLocked(key, data)
			c.mu.Unlock()
			return data, true, true
		}
		notJSON = err == nil
	}

	c.mu.Lock()
	if notJSON {
		c.diskErrors++
	}
	c.misses++
	c.mu.Unlock()
	return nil, false, false
}

// Put stores a payload under key in the memory tier and, when configured,
// durably in the disk tier. Disk failures do not fail the put — the memory
// tier already holds the result — but are counted for statsz.
func (c *Cache) Put(key string, payload []byte) {
	c.mu.Lock()
	c.insertLocked(key, payload)
	c.mu.Unlock()
	if c.dir != "" {
		store := &ckptio.Store{Path: c.diskPath(key), Keep: 1}
		if err := store.Save(payload); err != nil {
			c.mu.Lock()
			c.diskErrors++
			c.mu.Unlock()
		}
	}
}

// insertLocked adds or refreshes an entry and evicts from the LRU tail
// until the byte budget holds. The newest entry always stays resident even
// if it alone exceeds the budget, so one oversized report cannot wedge the
// cache into rejecting everything.
func (c *Cache) insertLocked(key string, payload []byte) {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(payload)) - int64(len(ent.payload))
		ent.payload = payload
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
		c.bytes += int64(len(payload))
	}
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, ent.key)
		c.bytes -= int64(len(ent.payload))
		c.evictions++
	}
}

// CacheStats is the cache's statsz slice.
type CacheStats struct {
	Entries    int   `json:"cache_entries"`
	Bytes      int64 `json:"cache_bytes"`
	MaxBytes   int64 `json:"cache_max_bytes"`
	MemHits    int64 `json:"cache_mem_hits"`
	DiskHits   int64 `json:"cache_disk_hits"`
	Misses     int64 `json:"cache_misses"`
	Evictions  int64 `json:"cache_evictions"`
	DiskErrors int64 `json:"cache_disk_errors"`
	DiskTier   bool  `json:"cache_disk_tier"`
	// DiskSwept / DiskSweptBytes report the startup retention pass over
	// the disk tier (0 when the tier is unbounded or disabled).
	DiskSwept      int64 `json:"cache_disk_swept"`
	DiskSweptBytes int64 `json:"cache_disk_swept_bytes"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:        c.ll.Len(),
		Bytes:          c.bytes,
		MaxBytes:       c.maxBytes,
		MemHits:        c.memHits,
		DiskHits:       c.diskHits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		DiskErrors:     c.diskErrors,
		DiskTier:       c.dir != "",
		DiskSwept:      c.diskSwept,
		DiskSweptBytes: c.diskSweptBytes,
	}
}
