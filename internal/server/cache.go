package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"raxml/internal/core"
	"raxml/internal/msa"
	"raxml/internal/tree"
)

// HashBytes returns the content address of a blob: hex sha256.
func HashBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// BlobStore is the content-addressed artifact store: every input
// alignment, partition file, and result artifact lives under
// <dir>/blobs/<sha256> exactly once, so identical submissions and
// identical outputs share storage, and the persisted queue can
// reference inputs by hash across server restarts.
type BlobStore struct {
	dir string
	mu  sync.Mutex
}

// NewBlobStore opens (creating if needed) a store rooted at dir.
func NewBlobStore(dir string) (*BlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &BlobStore{dir: dir}, nil
}

func (s *BlobStore) path(hash string) string { return filepath.Join(s.dir, hash) }

// Put stores data and returns its content address. Idempotent: a blob
// already present is not rewritten.
func (s *BlobStore) Put(data []byte) (string, error) {
	hash := HashBytes(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(hash)
	if _, err := os.Stat(p); err == nil {
		return hash, nil
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, p); err != nil {
		return "", err
	}
	return hash, nil
}

// Get returns the blob at hash.
func (s *BlobStore) Get(hash string) ([]byte, error) {
	if hash == "" {
		return nil, nil
	}
	return os.ReadFile(s.path(hash))
}

// Has reports whether the blob exists.
func (s *BlobStore) Has(hash string) bool {
	_, err := os.Stat(s.path(hash))
	return err == nil
}

// CacheStats is one namespace's hit/miss record.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// WarmCache is the in-memory warm cache keyed by alignment content:
// expensive cold-setup products (namespace "patterns": pattern
// compression output; namespace "starttree": parsimony stepwise-
// addition trees) survive across runs, so a repeat submission of an
// already-seen alignment skips straight to the search. Namespaces keep
// independent hit/miss counters (exported at /debug/vars). Every
// namespace holds at most warmCacheEntries entries and evicts the least
// recently used one beyond that, so a long-lived server's cache stays
// bounded however many distinct alignments and seeds it has served.
type WarmCache struct {
	mu sync.Mutex
	ns map[string]*nsCache
}

// warmCacheEntries is the per-namespace entry cap: several times the
// working set of a busy tenant mix (the serve-tcp benchmark cycles
// through 16 alignments), so recurring alignments keep hitting while
// one-off keys, such as the start trees of fresh parsimony seeds, age
// out.
const warmCacheEntries = 64

type nsCache struct {
	entries map[string]*list.Element // values are *cacheEntry
	lru     list.List                // front: most recently used
	stats   CacheStats
}

type cacheEntry struct {
	key string
	v   any
}

// NewWarmCache creates an empty cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{ns: make(map[string]*nsCache)}
}

func (c *WarmCache) space(ns string) *nsCache {
	n := c.ns[ns]
	if n == nil {
		n = &nsCache{entries: make(map[string]*list.Element)}
		c.ns[ns] = n
	}
	return n
}

// Get looks key up in namespace ns, counting the hit or miss; a hit
// makes the entry the namespace's most recently used.
func (c *WarmCache) Get(ns, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.space(ns)
	el, ok := n.entries[key]
	if !ok {
		n.stats.Misses++
		return nil, false
	}
	n.stats.Hits++
	n.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).v, true
}

// Put inserts (or replaces) key in namespace ns as its most recently
// used entry, evicting the least recently used one past the cap.
func (c *WarmCache) Put(ns, key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.space(ns)
	if el, ok := n.entries[key]; ok {
		el.Value.(*cacheEntry).v = v
		n.lru.MoveToFront(el)
		return
	}
	n.entries[key] = n.lru.PushFront(&cacheEntry{key: key, v: v})
	if n.lru.Len() > warmCacheEntries {
		old := n.lru.Back()
		n.lru.Remove(old)
		delete(n.entries, old.Value.(*cacheEntry).key)
	}
}

// Stats snapshots every namespace's counters.
func (c *WarmCache) Stats() map[string]CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CacheStats, len(c.ns))
	for name, n := range c.ns {
		st := n.stats
		st.Entries = len(n.entries)
		out[name] = st
	}
	return out
}

// Hits returns one namespace's hit count (test/e2e assertions).
func (c *WarmCache) Hits(ns string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.space(ns).stats.Hits
}

// cache namespaces
const (
	nsPatterns  = "patterns"
	nsStartTree = "starttree"
)

// patternsFor returns the compressed alignment for the given input
// blobs, via the warm cache: the pattern-compression pass (and the
// partition parse) runs only on the first sight of an alignment. The
// returned *msa.Patterns is shared read-only across concurrent runs —
// the grid already treats it as immutable.
func (s *Server) patternsFor(alignHash, partHash string) (*msa.Patterns, error) {
	key := alignHash + "/" + partHash
	if v, ok := s.cache.Get(nsPatterns, key); ok {
		return v.(*msa.Patterns), nil
	}
	align, err := s.blobs.Get(alignHash)
	if err != nil {
		return nil, fmt.Errorf("alignment blob: %w", err)
	}
	a, err := msa.Sniff(align)
	if err != nil {
		return nil, err
	}
	var pat *msa.Patterns
	if partHash != "" {
		part, err := s.blobs.Get(partHash)
		if err != nil {
			return nil, fmt.Errorf("partition blob: %w", err)
		}
		defs, err := msa.ParsePartitionFile(bytes.NewReader(part))
		if err != nil {
			return nil, err
		}
		pat, err = msa.CompressPartitioned(a, defs)
		if err != nil {
			return nil, err
		}
	} else {
		pat, err = msa.Compress(a)
		if err != nil {
			return nil, err
		}
	}
	s.cache.Put(nsPatterns, key, pat)
	return pat, nil
}

// startTrees adapts the warm cache to core.StartTreeCache. Both sides
// clone: searches mutate their start tree in place, so the cached tree
// must stay pristine.
type startTrees struct{ c *WarmCache }

func (st startTrees) GetStartTree(key string) (*tree.Tree, bool) {
	v, ok := st.c.Get(nsStartTree, key)
	if !ok {
		return nil, false
	}
	return v.(*tree.Tree).Clone(), true
}

func (st startTrees) PutStartTree(key string, t *tree.Tree) {
	st.c.Put(nsStartTree, key, t.Clone())
}

var _ core.StartTreeCache = startTrees{}
