package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// spanLevel is the nesting depth of the spans the program emits; any
// other span (a trace root) is level 0. Parents are always shallower.
var spanLevel = map[string]int{
	"jobs.attempt":    1,
	"jobs.backoff":    1,
	"runner.run":      2,
	"runner.stream":   2,
	"runner.point":    3,
	"runner.simulate": 4,
	"simmpi.world":    5,
}

// reportedSpans are the spans whose aggregates are per-layer metrics.
var reportedSpans = []string{"runner.run", "runner.stream", "runner.point", "runner.simulate", "simmpi.world", "jobs.attempt"}

// spanTotals is one span name's aggregate.
type spanTotals struct {
	count             int
	total, self, virt float64 // seconds
}

// spanAgg aggregates spans by name across many traces: count, total
// duration, and self time (duration minus the part of it covered by
// child spans). Safe for concurrent use.
type spanAgg struct {
	mu      sync.Mutex
	byName  map[string]*spanTotals
	dropped int
}

func newSpanAgg() *spanAgg { return &spanAgg{byName: map[string]*spanTotals{}} }

// addTrace aggregates a finished in-process trace.
func (a *spanAgg) addTrace(tr *obs.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		return fmt.Errorf("exporting trace: %w", err)
	}
	return a.addChrome(buf.Bytes())
}

type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	Meta struct {
		DroppedSpans int `json:"dropped_spans"`
	} `json:"petasim"`
}

type span struct {
	name       string
	start, end float64 // microseconds since trace start
	lane       int
	virt       float64
	level      int
}

// addChrome aggregates one trace in Chrome trace-event JSON, the form
// the program exports. The export carries no parent links, so each
// span's parent is rebuilt from the known nesting of span names: the
// deepest shallower-named span whose interval contains it. Ties go to
// a span on the same lane, since the exporter only lets a span share a
// lane with overlapping spans that are its ancestors.
func (a *spanAgg) addChrome(data []byte) error {
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return fmt.Errorf("parsing trace: %w", err)
	}
	var spans []span
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := span{name: ev.Name, start: ev.Ts, end: ev.Ts + ev.Dur, lane: ev.Tid, level: spanLevel[ev.Name]}
		if v, ok := ev.Args["virtual_sec"].(float64); ok {
			s.virt = v
		}
		spans = append(spans, s)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	const eps = 1e-3 // microseconds of float rounding in the export
	children := make([][]int, len(spans))
	for i, s := range spans {
		parent, onLane := -1, false
		for j := i - 1; j >= 0; j-- {
			c := spans[j]
			if c.level >= s.level || c.start > s.start+eps || c.end < s.end-eps {
				continue
			}
			// The deepest candidate is the parent; among equally deep
			// ones (concurrent siblings of the parent), one on the same
			// lane, else the latest started.
			same := c.lane == s.lane
			if parent < 0 || c.level > spans[parent].level ||
				(c.level == spans[parent].level && same && !onLane) {
				parent, onLane = j, same
			}
		}
		if parent >= 0 {
			children[parent] = append(children[parent], i)
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropped += ct.Meta.DroppedSpans
	for i, s := range spans {
		t := a.byName[s.name]
		if t == nil {
			t = &spanTotals{}
			a.byName[s.name] = t
		}
		dur := (s.end - s.start) / 1e6
		t.count++
		t.total += dur
		t.self += dur - covered(spans, children[i], s)/1e6
		t.virt += s.virt
	}
	return nil
}

// covered returns how much of parent's interval the union of the given
// child spans covers, in microseconds.
func covered(spans []span, kids []int, parent span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// fill writes the aggregates as per-layer metrics:
// span.<name>.count, .total_s and .self_s, plus the virtual seconds the
// simulated worlds covered.
func (a *spanAgg) fill(m map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, name := range reportedSpans {
		t := a.byName[name]
		if t == nil {
			t = &spanTotals{}
		}
		m["span."+name+".count"] = float64(t.count)
		m["span."+name+".total_s"] = t.total
		m["span."+name+".self_s"] = t.self
	}
	if t := a.byName["simmpi.world"]; t != nil {
		m["span.simmpi.world.virtual_s"] = t.virt
	}
	m["obs.dropped_spans"] = float64(a.dropped)
}
