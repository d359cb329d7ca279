package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/machfile"
	"repro/internal/obs"
	"repro/internal/runner"
)

// paperRef is the SHA-256 of what `petasim -quick -max 64 <command>`
// prints for each command `all` runs, in order; their concatenation is
// the output of `petasim -quick -max 64 all`.
var paperRef = []struct{ command, sha256 string }{
	{"table1", "37f6efc60aef366ac1a307118a04b4858b9a71cd2330c57126fd89955b2b3745"},
	{"table2", "f318b675213066ad16a56fe1ab4fae5a80e5e724da4a63742b68afe6077c1473"},
	{"fig1", "356fb4eff44c3bd3c182488e653c9d807895dfad017f0311dade388092deb307"},
	{"figures", "0d96ef05bdaadcc9de34aab9880c915c058be155b330021b5645ae7aca2bf75d"},
	{"fig8", "3f10c433f633c2ba8615ed3a9498ea5ce4f46cbbed325940430be2020ddbce30"},
	{"gtcopt", "43a0c25d0876c6e067b08e849e796946c77e1faef751643f1e30e44ed79b1a16"},
	{"amropt", "e679cc09ec9cc80d2249c77c0fbb2198af1101598e59dbb7260063fff8fda705"},
	{"vnode", "099155d4f8a90754cf24d6cb4ab4a0f56e3ca9bec0f937f189945a05ff83cd2e"},
	{"apexmap", "e04b8bd3c08da297c9a24a0a41392285387a5458d06516ca348f00fd18a097e3"},
}

// newPaperOptions configures the engine as `petasim -quick -max 64`
// does: a pool of one worker per CPU with the default memory tier.
func newPaperOptions(workers int) experiments.Options {
	pool := &runner.Pool{Workers: workers, Mem: runner.NewMemCache(runner.DefaultMemCapacity)}
	return experiments.Options{Quick: true, MaxProcs: 64, Runner: pool, Machines: machfile.NewRegistry()}
}

// paperRun executes the commands of `petasim all` one after another,
// timing each experiment entry point and each render separately. A
// traced run gives every experiment call its own trace and aggregates
// the spans.
type paperRun struct {
	ctx    context.Context
	opts   experiments.Options
	traced bool
	spans  *spanAgg
	// layer accumulates seconds spent in experiment entry points, keyed
	// by per-layer metric name.
	layer  map[string]float64
	render time.Duration
}

// call times one experiment entry point under the layer metric name.
func (p *paperRun) call(metric string, f func(ctx context.Context) error) error {
	ctx := p.ctx
	var tr *obs.Trace
	if p.traced {
		tr = obs.NewTrace(obs.NewID(), "perfbench."+metric)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	t0 := time.Now()
	err := f(ctx)
	p.layer[metric] += time.Since(t0).Seconds()
	if tr != nil {
		tr.Finish()
		if aerr := p.spans.addTrace(tr); aerr != nil && err == nil {
			err = aerr
		}
	}
	return err
}

// draw times one render into w.
func (p *paperRun) draw(f func() error) error {
	t0 := time.Now()
	err := f()
	p.render += time.Since(t0)
	return err
}

func (p *paperRun) renderFigure(w io.Writer, fig *experiments.Figure) error {
	return p.draw(func() error {
		if err := fig.Render(w); err != nil {
			return err
		}
		return fig.RenderChart(w, "gflops")
	})
}

// command runs one `petasim all` command, rendering into w. splitFigures
// calls Figures 2–7 one at a time instead of through AllFigures, which
// attributes time per application.
func (p *paperRun) command(name string, w io.Writer, splitFigures bool) error {
	o := p.opts
	switch name {
	case "table1":
		var rows []experiments.Table1Row
		if err := p.call("experiments.table1_s", func(ctx context.Context) (err error) {
			rows, err = experiments.Table1(ctx, o)
			return err
		}); err != nil {
			return err
		}
		return p.draw(func() error { experiments.RenderTable1(w, rows); return nil })
	case "table2":
		return p.draw(func() error { experiments.RenderTable2(w); return nil })
	case "fig1":
		var res []runner.Result
		if err := p.call("experiments.fig1_s", func(ctx context.Context) (err error) {
			res, err = experiments.Fig1Rendered(ctx, o, 64, 48)
			return err
		}); err != nil {
			return err
		}
		return p.draw(func() error {
			for _, r := range res {
				fmt.Fprint(w, r.Output)
			}
			return nil
		})
	case "figures":
		if !splitFigures {
			var figs []*experiments.Figure
			if err := p.call("experiments.figs2to7_s", func(ctx context.Context) (err error) {
				figs, err = experiments.AllFigures(ctx, o)
				return err
			}); err != nil {
				return err
			}
			for _, fig := range figs {
				if err := p.renderFigure(w, fig); err != nil {
					return err
				}
			}
			return nil
		}
		for n, f := range []func(context.Context, experiments.Options) (*experiments.Figure, error){
			experiments.Fig2GTC, experiments.Fig3ELBM3D, experiments.Fig4Cactus,
			experiments.Fig5BeamBeam3D, experiments.Fig6PARATEC, experiments.Fig7HyperCLaw,
		} {
			var fig *experiments.Figure
			metric := fmt.Sprintf("experiments.fig%d_s", n+2)
			if err := p.call(metric, func(ctx context.Context) (err error) {
				fig, err = f(ctx, o)
				return err
			}); err != nil {
				return err
			}
			p.layer["experiments.figs2to7_s"] += p.layer[metric]
			if err := p.renderFigure(w, fig); err != nil {
				return err
			}
		}
		return nil
	case "fig8":
		var sum *experiments.Summary
		if err := p.call("experiments.fig8_s", func(ctx context.Context) (err error) {
			sum, err = experiments.Fig8Summary(ctx, o)
			return err
		}); err != nil {
			return err
		}
		return p.draw(func() error { sum.Render(w); return nil })
	case "gtcopt", "amropt", "vnode":
		var title string
		var rows []experiments.OptResult
		if err := p.call("experiments.studies_s", func(ctx context.Context) error {
			study, r, err := experiments.RunStudyByID(ctx, o, name)
			title, rows = study.Title, r
			return err
		}); err != nil {
			return err
		}
		return p.draw(func() error { experiments.RenderOptResults(w, title, rows); return nil })
	case "apexmap":
		var res []runner.Result
		if err := p.call("experiments.apexmap_s", func(ctx context.Context) (err error) {
			res, err = experiments.ApexMapStudy(ctx, o)
			return err
		}); err != nil {
			return err
		}
		return p.draw(func() error {
			fmt.Fprintln(w, "Apex-MAP locality sweep (global accesses per µs, higher is better)")
			for _, r := range res {
				fmt.Fprintln(w, r.Output)
			}
			return nil
		})
	}
	return fmt.Errorf("unknown paper command %q", name)
}

// runPaperCold regenerates the paper once in this fresh process, so the
// result store, the HyperCLaw trajectory cache, the netmodel model cache
// and the simmpi host pool all start empty. The regeneration is one
// operation, so its op_* metrics and rate restate wall_s; they are
// reported because every run reports every end-to-end metric. Each
// command's rendered output must match its reference digest.
func runPaperCold(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var err error
	if !e.traced && !e.twin {
		if out.e2e["setup_s"], err = probeSetup(ctx, "paper_cold"); err != nil {
			return nil, err
		}
	}
	opts := newPaperOptions(e.workers)
	pool := opts.Runner
	p := &paperRun{ctx: ctx, opts: opts, traced: e.traced, spans: newSpanAgg(), layer: out.layer}
	split := e.traced || e.twin

	var slotFrac func() float64
	if e.traced {
		slotFrac = sampleSlots(pool)
	}
	var rt runtimeDelta
	rt.start()
	var buf bytes.Buffer
	t0 := time.Now()
	for _, ref := range paperRef {
		buf.Reset()
		if err := p.command(ref.command, &buf, split); err != nil {
			return nil, fmt.Errorf("%s: %w", ref.command, err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != ref.sha256 {
			out.problem("%s output differs from the reference (sha256 %x)", ref.command, sum)
		}
	}
	wall := time.Since(t0)
	rt.stop()
	out.attempted = 1
	if len(out.problems) > 0 {
		out.failed = 1
	}

	latencyMetrics(out.e2e, []time.Duration{wall}, wall)
	if out.e2e["peak_mem_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	if !e.traced {
		return out, nil
	}

	out.layer["runner.slot_busy_frac"] = slotFrac()
	poolLayer(out.layer, runner.Stats{}, pool.Stats())
	store, _ := pool.StoreStats()
	storeLayer(out.layer, runner.StoreStats{}, store)
	out.layer["experiments.render_s"] = p.render.Seconds()
	rt.fill(out.layer, out.attempted)
	p.spans.fill(out.layer)
	return out, nil
}

// sampleSlots samples the pool's simulation-slot occupancy every
// millisecond until the returned function is called, which stops the
// sampler and returns the mean busy fraction.
func sampleSlots(pool *runner.Pool) func() float64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var busySum, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				busy, total := pool.SlotStats()
				busySum += float64(busy) / float64(total)
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		if n == 0 {
			return 0
		}
		return busySum / n
	}
}

// poolLayer records the points the pool dispatched between two
// snapshots: all of them, those simulated, and those deduplicated.
func poolLayer(m map[string]float64, before, after runner.Stats) {
	m["runner.points"] = float64(after.Points - before.Points)
	m["runner.simulated"] = float64(after.Simulated - before.Simulated)
	m["runner.deduped"] = float64(after.Deduped - before.Deduped)
}

// storeLayer records the result store's traffic between two snapshots:
// lookups, stores, failed stores, and the memory tier's hit ratio.
func storeLayer(m map[string]float64, before, after runner.StoreStats) {
	m["runner.store.gets"] = float64(after.Gets - before.Gets)
	m["runner.store.puts"] = float64(after.Puts - before.Puts)
	m["runner.store.put_failures"] = float64(after.PutFailures - before.PutFailures)
	memA, memB := memTier(after), memTier(before)
	if gets := memA.Gets - memB.Gets; gets > 0 {
		m["runner.store.mem_hit_ratio"] = float64(memA.Hits-memB.Hits) / float64(gets)
	}
}

// memTier finds the memory tier in a store's stats tree.
func memTier(st runner.StoreStats) runner.StoreStats {
	if st.Name == "mem" {
		return st
	}
	for _, t := range st.Tiers {
		if m := memTier(t); m.Name == "mem" {
			return m
		}
	}
	return runner.StoreStats{}
}
