package runner

import (
	"container/list"
	"sync"
)

// DefaultMemCapacity is the entry budget NewMemCache uses when asked for
// a non-positive capacity. At roughly a kilobyte per cached Result it
// bounds the memory tier to a few megabytes.
const DefaultMemCapacity = 4096

// memShardCount is the stripe width of large caches. Content keys are
// SHA-256 hex, so a cheap FNV-1a over the key spreads entries evenly.
const memShardCount = 16

// MemCache is a sharded in-memory LRU over results, the fast tier in
// front of the on-disk Cache. Each shard has its own mutex and LRU list,
// so concurrent request handlers contend only when their keys land on
// the same stripe. Caches smaller than 4×memShardCount entries collapse
// to a single shard, which keeps eviction order exact for tiny caches.
//
// Stored results are returned by value, but reference fields (Extra,
// Output) are shared between hits; callers must treat them as
// immutable, which every experiment assembler already does.
type MemCache struct {
	shards []*memShard
	c      tierCounters
}

type memShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type memEntry struct {
	key string
	r   Result
}

// NewMemCache builds a memory tier holding about capacity entries
// (rounded up to a whole number per shard). A capacity of zero or less
// returns nil — the disabled tier, matching the CLI's "-mem-cache 0
// disables" contract. Callers wanting the default ask for
// DefaultMemCapacity explicitly.
func NewMemCache(capacity int) *MemCache {
	if capacity <= 0 {
		return nil
	}
	n := memShardCount
	if capacity < 4*memShardCount {
		n = 1
	}
	per := (capacity + n - 1) / n
	shards := make([]*memShard, n)
	for i := range shards {
		shards[i] = &memShard{
			cap:   per,
			order: list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return &MemCache{shards: shards}
}

func (m *MemCache) shard(key string) *memShard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	// Inline FNV-1a; hash/fnv would allocate a hasher per lookup.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return m.shards[h%uint32(len(m.shards))]
}

// Get returns the cached result for key, marking it most recently used.
func (m *MemCache) Get(key string) (Result, bool) {
	s := m.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var r Result
	if ok {
		s.order.MoveToFront(el)
		r = el.Value.(*memEntry).r
	}
	s.mu.Unlock()
	m.c.get(ok)
	return r, ok
}

// Put stores the result under key, evicting the shard's least recently
// used entry when the shard is full.
func (m *MemCache) Put(key string, r Result) {
	m.c.put(nil)
	s := m.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*memEntry).r = r
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&memEntry{key: key, r: r})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*memEntry).key)
	}
}

// Len counts the entries across all shards.
func (m *MemCache) Len() int {
	n := 0
	for _, s := range m.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Cap returns the total entry capacity across all shards.
func (m *MemCache) Cap() int {
	n := 0
	for _, s := range m.shards {
		n += s.cap
	}
	return n
}

// Stats reports the memory tier's lifetime traffic and occupancy.
func (m *MemCache) Stats() StoreStats {
	st := m.c.stats("mem")
	st.Len, st.Cap = m.Len(), m.Cap()
	return st
}
