package server

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricValues scrapes url and returns sample-line values keyed by the
// full sample text up to the value (name plus label set).
func metricValues(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, body := get(t, url+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestTraceHeaderAndEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, _ := get(t, ts.URL+sweepQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Petasim-Trace")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("X-Petasim-Trace = %q, want 16 hex chars", id)
	}

	tresp, tbody := get(t, ts.URL+"/v1/trace/"+id)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d: %s", id, tresp.StatusCode, tbody)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Petasim struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		} `json:"petasim"`
	}
	if err := json.Unmarshal(tbody, &f); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if f.Petasim.TraceID != id {
		t.Fatalf("trace_id = %q, want %q", f.Petasim.TraceID, id)
	}
	if f.Petasim.Name != "GET /v1/sweep" {
		t.Fatalf("trace name = %q, want the route pattern", f.Petasim.Name)
	}
	// The request trace must reach through the runner into simmpi, with
	// the served-from provenance on the point spans.
	seen := map[string]bool{}
	served := false
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		seen[ev.Name] = true
		if ev.Name == "runner.point" && ev.Args["served"] != nil {
			served = true
		}
	}
	for _, want := range []string{"GET /v1/sweep", "runner.run", "runner.point"} {
		if !seen[want] {
			t.Fatalf("trace missing %q spans (have %v)", want, seen)
		}
	}
	// A point whose op log an earlier run in this process recorded is
	// priced rather than run.
	if !seen["simmpi.world"] && !seen["simmpi.price"] {
		t.Fatalf("trace missing a simmpi.world or simmpi.price span (have %v)", seen)
	}
	if !served {
		t.Fatal("no runner.point span carries a served attr")
	}

	// Unknown and never-traced IDs 404.
	if resp, _ := get(t, ts.URL+"/v1/trace/ffffffffffffffff"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
	}
	hz, _ := get(t, ts.URL+"/healthz")
	if hid := hz.Header.Get("X-Petasim-Trace"); hid == "" {
		t.Fatal("healthz should still echo a request ID")
	} else if resp, _ := get(t, ts.URL+"/v1/trace/"+hid); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("healthz is untraced; /v1/trace should 404, got %d", resp.StatusCode)
	}
}

func TestMetricsCountersAdvance(t *testing.T) {
	ts, _ := newTestServer(t)
	before := metricValues(t, ts.URL)

	// Cold then warm: the second sweep must be served from cache tiers.
	for i := 0; i < 2; i++ {
		if resp, body := get(t, ts.URL+sweepQuery); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	after := metricValues(t, ts.URL)

	sweepOK := `petasim_http_requests_total{route="GET /v1/sweep",status="2xx"}`
	if delta := after[sweepOK] - before[sweepOK]; delta != 2 {
		t.Fatalf("%s moved by %v, want 2", sweepOK, delta)
	}
	simulated := `petasim_points_total{served="simulated"}`
	if after[simulated] <= before[simulated] {
		t.Fatalf("%s did not advance (%v -> %v)", simulated, before[simulated], after[simulated])
	}
	var cached float64
	for _, served := range []string{"mem", "disk", "dedup"} {
		cached += after[`petasim_points_total{served="`+served+`"}`]
	}
	if cached == 0 {
		t.Fatal("warm sweep produced no cache-tier hits in petasim_points_total")
	}
	latencyCount := `petasim_http_request_seconds_count{route="GET /v1/sweep"}`
	if delta := after[latencyCount] - before[latencyCount]; delta != 2 {
		t.Fatalf("%s moved by %v, want 2", latencyCount, delta)
	}
	if after["petasim_pool_slots_total"] != 4 {
		t.Fatalf("petasim_pool_slots_total = %v, want the pool's 4 workers", after["petasim_pool_slots_total"])
	}
	if after[`petasim_traces_retained`] < 1 {
		t.Fatal("sink retains no traces after traced requests")
	}
	// Store-tier families must be present with the path-shaped label.
	found := false
	for k := range after {
		if strings.HasPrefix(k, "petasim_store_gets_total{store=") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no petasim_store_gets_total samples in exposition")
	}
}

// TestMetricsOpLogCache checks the record-once families: a simulated
// sweep point looks up its op log exactly once, and the held-log gauges
// are exposed.
func TestMetricsOpLogCache(t *testing.T) {
	ts, _ := newTestServer(t)
	lookups := func(m map[string]float64) float64 {
		var n float64
		for _, result := range []string{"hit", "miss", "bypass"} {
			n += m[`petasim_oplog_lookups_total{result="`+result+`"}`]
		}
		return n
	}
	before := metricValues(t, ts.URL)
	if resp, body := get(t, ts.URL+sweepQuery); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	after := metricValues(t, ts.URL)
	simulated := `petasim_points_total{served="simulated"}`
	if got, want := lookups(after)-lookups(before), after[simulated]-before[simulated]; got < want || want < 1 {
		t.Fatalf("op-log lookups moved by %v for %v simulated points", got, want)
	}
	for _, gauge := range []string{"petasim_oplog_cache_entries", "petasim_oplog_cache_bytes"} {
		if _, ok := after[gauge]; !ok {
			t.Fatalf("%s missing from exposition", gauge)
		}
	}
	if after["petasim_oplog_cache_entries"] > 0 && after["petasim_oplog_cache_bytes"] <= 0 {
		t.Fatalf("%v logs held in %v bytes", after["petasim_oplog_cache_entries"], after["petasim_oplog_cache_bytes"])
	}
}

func TestStatsSchemaAndObsSection(t *testing.T) {
	ts, _ := newTestServer(t)
	get(t, ts.URL+sweepQuery) // publish at least one trace
	resp, body := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("invalid stats JSON: %v", err)
	}
	if st.Schema != statsSchemaVersion {
		t.Fatalf("schema = %d, want %d", st.Schema, statsSchemaVersion)
	}
	if st.Obs == nil {
		t.Fatal("stats missing obs section")
	}
	if st.Obs.TracesPublished < 1 || st.Obs.TracesRetained < 1 {
		t.Fatalf("obs section not counting: %+v", st.Obs)
	}
}
