package runner

import (
	"container/list"
	"sync"
)

// DefaultMemCapacity is the entry budget NewMemCache uses when asked for
// a non-positive capacity. At roughly a kilobyte per cached Result it
// bounds the memory tier to a few megabytes.
const DefaultMemCapacity = 4096

// MemCache is an in-memory LRU over results, the fast tier in front of
// the on-disk Cache: one mutex guards one recency list, so it holds
// exactly its capacity and evicts in exact least-recently-used order.
//
// Stored results are returned by value, but reference fields (Extra,
// Output) are shared between hits; callers must treat them as
// immutable, which every experiment assembler already does.
type MemCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
	c     tierCounters
}

type memEntry struct {
	key string
	r   Result
}

// NewMemCache builds a memory tier holding capacity entries. A capacity
// of zero or less returns nil — the disabled tier, matching the CLI's
// "-mem-cache 0 disables" contract. Callers wanting the default ask for
// DefaultMemCapacity explicitly.
func NewMemCache(capacity int) *MemCache {
	if capacity <= 0 {
		return nil
	}
	return &MemCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached result for key, marking it most recently used.
func (m *MemCache) Get(key string) (Result, bool) {
	m.mu.Lock()
	el, ok := m.items[key]
	var r Result
	if ok {
		m.order.MoveToFront(el)
		r = el.Value.(*memEntry).r
	}
	m.mu.Unlock()
	m.c.get(ok)
	return r, ok
}

// Put stores the result under key, evicting the least recently used
// entry when the cache is full.
func (m *MemCache) Put(key string, r Result) {
	m.c.put(nil)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		el.Value.(*memEntry).r = r
		m.order.MoveToFront(el)
		return
	}
	m.items[key] = m.order.PushFront(&memEntry{key: key, r: r})
	if m.order.Len() > m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.items, oldest.Value.(*memEntry).key)
	}
}

// Len counts the cached entries.
func (m *MemCache) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Cap returns the entry capacity.
func (m *MemCache) Cap() int { return m.cap }

// Stats reports the memory tier's lifetime traffic and occupancy.
func (m *MemCache) Stats() StoreStats {
	st := m.c.stats("mem")
	st.Len, st.Cap = m.Len(), m.Cap()
	return st
}
