package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Cache persists results on disk, one JSON file per point named by its
// content key. Entries are written atomically (temp file + rename), so
// concurrent workers and interrupted runs never leave a half-written
// entry behind, and a cache directory can be shared between runs.
type Cache struct {
	dir string
	c   tierCounters
}

// OpenCache opens the result cache rooted at dir, creating the
// directory if needed.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads the cached result for key. A missing or unreadable entry is
// a miss, never an error: a corrupt cache degrades to re-simulation.
func (c *Cache) Get(key string) (Result, bool) {
	r, ok := c.read(key)
	c.c.get(ok)
	return r, ok
}

func (c *Cache) read(key string) (Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Result{}, false
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, false
	}
	return r, true
}

// Put stores the result under key.
func (c *Cache) Put(key string, r Result) error {
	err := c.write(key, r)
	c.c.put(err)
	return err
}

func (c *Cache) write(key string, r Result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: encoding cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: writing cache entry: %w", err)
	}
	return nil
}

// Len counts the cached entries.
func (c *Cache) Len() int {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// Stats reports the disk tier's lifetime traffic and entry count.
func (c *Cache) Stats() StoreStats {
	st := c.c.stats("disk")
	st.Len = c.Len()
	return st
}
