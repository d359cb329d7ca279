package server

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/apps"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simmpi"
)

// Observability wiring: every request runs through ServeHTTP's
// middleware, which assigns a request ID (echoed as X-Petasim-Trace),
// carries a trace through the handler's context on the simulating
// routes, and records the request into the metrics registry. The
// registry itself is served at GET /metrics in Prometheus text format;
// completed traces are served at GET /v1/trace/{id} as Chrome
// trace-event JSON.
//
// Metric families follow petasim_<subsystem>_<what>[_total] naming:
// the HTTP middleware records directly (instruments interned at route
// registration), while the pool, store tiers, job queue, simmpi, and
// trace sink are sampled at scrape time from the atomic state those
// subsystems already maintain — scraping /metrics never touches a
// simulation hot path.

// routePatterns is every mux pattern the middleware labels metrics
// with, plus the catch-all for unmatched paths. Label sets are interned
// against this list at startup; an unknown route can never mint a new
// series at request time.
var routePatterns = []string{
	"GET /v1/workloads",
	"GET /v1/machines",
	"POST /v1/machines",
	"GET /v1/sweep",
	"POST /v1/sweep",
	"GET /v1/sweep/stream",
	"GET /v1/whatif",
	"GET /v1/figures/{n}",
	"POST /v1/jobs",
	"GET /v1/jobs",
	"GET /v1/jobs/{id}",
	"GET /v1/jobs/{id}/result",
	"GET /v1/jobs/{id}/stream",
	"DELETE /v1/jobs/{id}",
	"GET /v1/stats",
	"GET /v1/trace/{id}",
	"GET /metrics",
	"GET /healthz",
	routeOther,
}

const routeOther = "other"

// untracedRoutes are matched requests that never get a per-request
// trace: probes and scrapes would otherwise churn the sink's bounded
// retention with one-span traces nobody asks for.
func untracedRoute(route string) bool {
	switch route {
	case "GET /metrics", "GET /healthz", "GET /v1/trace/{id}", routeOther:
		return true
	}
	return false
}

// statusClass buckets a status code for the requests counter label.
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

var statusClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// httpMetrics is the middleware's interned instrument table.
type httpMetrics struct {
	inflight *obs.Gauge
	requests map[string]map[string]*obs.Counter // route → class → counter
	latency  map[string]*obs.Histogram          // route → histogram
}

// initObs builds the server's registry: the middleware's direct
// instruments plus the scrape-time samplers over pool, store, queue,
// simmpi, and the trace sink.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	s.reg = reg
	s.sink = obs.DefaultSink

	m := &httpMetrics{
		inflight: reg.Gauge("petasim_http_inflight", "HTTP requests currently being served."),
		requests: make(map[string]map[string]*obs.Counter, len(routePatterns)),
		latency:  make(map[string]*obs.Histogram, len(routePatterns)),
	}
	for _, route := range routePatterns {
		byClass := make(map[string]*obs.Counter, len(statusClasses))
		for _, class := range statusClasses {
			byClass[class] = reg.Counter("petasim_http_requests_total",
				"HTTP requests served, by route and status class.",
				obs.Label{Key: "route", Val: route}, obs.Label{Key: "status", Val: class})
		}
		m.requests[route] = byClass
		m.latency[route] = reg.Histogram("petasim_http_request_seconds",
			"HTTP request latency in seconds, by route.",
			obs.LatencyBuckets, obs.Label{Key: "route", Val: route})
	}
	s.metrics = m

	// Pool: lifetime points by provenance (singleflight dedups included)
	// and simulation-slot occupancy.
	reg.CounterFunc("petasim_points_total",
		"Simulation points dispatched, by served-from provenance.",
		func() []obs.Sample {
			st := s.pool.Stats()
			byServed := [...]int64{
				runner.ServedSim: st.Simulated, runner.ServedMem: st.MemHits,
				runner.ServedDisk: st.Hits, runner.ServedDedup: st.Deduped,
			}
			out := make([]obs.Sample, len(byServed))
			for via, n := range byServed {
				out[via] = obs.Sample{Value: float64(n),
					Labels: []obs.Label{{Key: "served", Val: runner.Served(via).String()}}}
			}
			return out
		})
	reg.GaugeFunc("petasim_pool_slots_busy",
		"Simulations holding a pool slot right now.",
		func() []obs.Sample {
			busy, _ := s.pool.SlotStats()
			return []obs.Sample{{Value: float64(busy)}}
		})
	reg.GaugeFunc("petasim_pool_slots_total",
		"Total simulation slots (the pool's Workers bound).",
		func() []obs.Sample {
			_, total := s.pool.SlotStats()
			return []obs.Sample{{Value: float64(total)}}
		})

	// Store tiers: the StoreStats tree flattened with a path-valued
	// store label ("tiered", "tiered/mem", "tiered/disk"), so each
	// tier's traffic survives into /metrics.
	storeCounter := func(name, help string, pick func(runner.StoreStats) int64) {
		reg.CounterFunc(name, help, func() []obs.Sample {
			st, ok := s.pool.StoreStats()
			if !ok {
				return nil
			}
			var out []obs.Sample
			walkStoreStats(st, "", func(path string, node runner.StoreStats) {
				out = append(out, obs.Sample{Value: float64(pick(node)),
					Labels: []obs.Label{{Key: "store", Val: path}}})
			})
			return out
		})
	}
	storeCounter("petasim_store_gets_total", "Result-store lookups, per tier.",
		func(n runner.StoreStats) int64 { return n.Gets })
	storeCounter("petasim_store_hits_total", "Result-store hits, per tier.",
		func(n runner.StoreStats) int64 { return n.Hits })
	storeCounter("petasim_store_puts_total", "Result-store writes, per tier.",
		func(n runner.StoreStats) int64 { return n.Puts })
	storeCounter("petasim_store_put_failures_total", "Failed result-store writes, per tier.",
		func(n runner.StoreStats) int64 { return n.PutFailures })
	storeCounter("petasim_store_backfills_total", "Disk hits promoted into the memory tier.",
		func(n runner.StoreStats) int64 { return n.Backfills })
	reg.GaugeFunc("petasim_store_entries", "Entries held, per tier that can count.",
		func() []obs.Sample {
			st, ok := s.pool.StoreStats()
			if !ok {
				return nil
			}
			var out []obs.Sample
			walkStoreStats(st, "", func(path string, node runner.StoreStats) {
				out = append(out, obs.Sample{Value: float64(node.Len),
					Labels: []obs.Label{{Key: "store", Val: path}}})
			})
			return out
		})

	// Jobs queue: depth by live state, terminal outcomes, and the
	// lifetime rejection/retry counters. All zero-valued families are
	// still exposed on a queueless server so dashboards need no
	// existence checks.
	queueStats := func() jobs.QueueStats {
		if s.queue == nil {
			return jobs.QueueStats{}
		}
		return s.queue.Stats()
	}
	reg.GaugeFunc("petasim_jobs_active",
		"Jobs currently queued or running, by state.",
		func() []obs.Sample {
			st := queueStats()
			return []obs.Sample{
				{Value: float64(st.Queued), Labels: []obs.Label{{Key: "state", Val: "queued"}}},
				{Value: float64(st.Running), Labels: []obs.Label{{Key: "state", Val: "running"}}},
			}
		})
	reg.CounterFunc("petasim_jobs_finished_total",
		"Jobs that reached a terminal state, by outcome.",
		func() []obs.Sample {
			st := queueStats()
			return []obs.Sample{
				{Value: float64(st.Done), Labels: []obs.Label{{Key: "state", Val: "done"}}},
				{Value: float64(st.Failed), Labels: []obs.Label{{Key: "state", Val: "failed"}}},
				{Value: float64(st.Cancelled), Labels: []obs.Label{{Key: "state", Val: "cancelled"}}},
			}
		})
	reg.CounterFunc("petasim_jobs_submitted_total", "Jobs accepted by Submit.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(queueStats().Submitted)}}
		})
	reg.CounterFunc("petasim_jobs_retries_total", "Transient-failure re-runs.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(queueStats().Retries)}}
		})
	reg.CounterFunc("petasim_jobs_rejected_total",
		"Submissions rejected 429, by tripped limit.",
		func() []obs.Sample {
			st := queueStats()
			return []obs.Sample{
				{Value: float64(st.RateLimited), Labels: []obs.Label{{Key: "reason", Val: "rate"}}},
				{Value: float64(st.QuotaRejected), Labels: []obs.Label{{Key: "reason", Val: "quota"}}},
			}
		})

	// Simulation core: worlds in flight and the pooled-host reserve.
	reg.GaugeFunc("petasim_simmpi_worlds_active", "Simulated worlds executing right now.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(simmpi.ActiveWorlds())}}
		})
	reg.GaugeFunc("petasim_simmpi_idle_hosts", "Pooled scheduler hosts parked idle.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(simmpi.IdleHosts())}}
		})

	// Record once, price per machine: the recordings the apps cache
	// holds (op logs of app and Apex-MAP points, HyperCLaw
	// trajectories), and how each apps.Simulate lookup went.
	reg.GaugeFunc("petasim_oplog_cache_entries", "Recordings held by the record-once cache: op logs and HyperCLaw trajectories.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(apps.LogCache().Entries)}}
		})
	reg.GaugeFunc("petasim_oplog_cache_bytes", "Bytes of the recordings held, op logs and HyperCLaw trajectories.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(apps.LogCache().Bytes)}}
		})
	reg.CounterFunc("petasim_oplog_lookups_total",
		"Simulated points by op-log outcome: priced (hit), recorded (miss) or run unrecorded (bypass).",
		func() []obs.Sample {
			st := apps.LogCache()
			return []obs.Sample{
				{Value: float64(st.Hits), Labels: []obs.Label{{Key: "result", Val: "hit"}}},
				{Value: float64(st.Misses), Labels: []obs.Label{{Key: "result", Val: "miss"}}},
				{Value: float64(st.Bypasses), Labels: []obs.Label{{Key: "result", Val: "bypass"}}},
			}
		})

	// The sink's own health: how many traces are retained vs published.
	reg.GaugeFunc("petasim_traces_retained", "Completed traces currently retained.",
		func() []obs.Sample {
			retained, _ := s.sink.Stats()
			return []obs.Sample{{Value: float64(retained)}}
		})
	reg.CounterFunc("petasim_traces_published_total", "Completed traces published to the sink.",
		func() []obs.Sample {
			_, published := s.sink.Stats()
			return []obs.Sample{{Value: float64(published)}}
		})
}

// walkStoreStats visits the stats tree depth-first, labelling each node
// with its slash-joined path from the root.
func walkStoreStats(st runner.StoreStats, prefix string, visit func(path string, node runner.StoreStats)) {
	path := st.Name
	if prefix != "" {
		path = prefix + "/" + st.Name
	}
	visit(path, st)
	for _, child := range st.Tiers {
		walkStoreStats(child, path, visit)
	}
}

// routeLabel maps a request onto its interned route pattern without
// dispatching it: the mux's own matcher, so the label agrees with the
// handler that will run.
func (s *Server) routeLabel(r *http.Request) string {
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		return routeOther
	}
	if _, ok := s.metrics.requests[pattern]; !ok {
		return routeOther
	}
	return pattern
}

// statusWriter observes the response status for metrics and the trace
// root attr, passing flushes through for the streaming handlers.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observe records one finished request.
func (m *httpMetrics) observe(route string, code int, elapsed time.Duration) {
	m.requests[route][statusClass(code)].Inc()
	m.latency[route].Observe(elapsed.Seconds())
}

// handleTrace serves one retained trace as Chrome trace-event JSON —
// load the body in chrome://tracing or Perfetto. The id is a request's
// X-Petasim-Trace header value or an async job's ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.sink.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no retained trace %q (traces are kept for the most recent requests and jobs only)", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChromeJSON(w)
}
