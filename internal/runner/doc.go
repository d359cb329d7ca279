// Package runner schedules experiment points across a worker pool and
// serves repeated points from a content-keyed result cache.
//
// The paper's evaluation is a large cross-product — six applications ×
// five platform models × many concurrencies — and every point is an
// independent simulation. The runner is the seam between that
// cross-product and the host machine:
//
//   - A [Job] is one independently schedulable point: a content [Key]
//     identifying what is being simulated plus a Run function that
//     produces a structured [Result].
//   - A [Pool] fans jobs out across a fixed number of worker
//     goroutines. [Pool.Run] returns results in job order, so output
//     assembled from them is byte-identical to a serial run regardless
//     of worker count or host scheduling; [Pool.Stream] instead yields
//     an [Event] per point in completion order, with served-from
//     provenance, for consumers that want results as they happen.
//   - Every entry point takes a context. Cancellation stops scheduling
//     promptly, in-flight simulations observe it at their next
//     communication step, a singleflight waiter abandons only itself,
//     and Run returns partial results with every per-job error joined
//     (errors.Join) instead of discarding the batch on first failure.
//   - A pool owns two result tiers, both optional. A [MemCache] is a
//     single-mutex in-memory LRU — the fast tier a long-running server
//     answers warm queries from. A [Cache] persists results as one JSON
//     file per point under a directory, keyed by the SHA-256 of the
//     experiment identifier and every value that determines the point's
//     outcome (machine spec, concurrency, config knobs). A lookup tries
//     memory, then disk, promoting a disk hit into memory; a simulated
//     point is written to both. A second run of the same experiment set
//     completes without re-simulating anything; [Pool.Stats] reports
//     the simulated/mem/disk/deduped split (the one served-from tally:
//     the server's cost headers, job progress and /metrics all read
//     it) and [Pool.StoreStats] each tier's traffic.
//   - Concurrent lookups of one key are deduplicated in flight
//     (singleflight), so a pool shared by many concurrent Run calls —
//     internal/server gives every request a [Pool.View] of one shared
//     pool — simulates each point exactly once. A failed disk-cache
//     write warns once and the run continues: a simulated result is
//     never discarded because the disk is full or read-only.
//
// [Result] records serialize to JSON ([WriteJSON]) and CSV
// ([WriteCSV]) for external plotting and archival.
//
// The package is deliberately ignorant of the experiments themselves:
// internal/experiments expands figures, tables and optimisation
// studies into jobs, and cmd/petasim owns the pool's size (-jobs) and
// the cache location (-cache).
package runner
