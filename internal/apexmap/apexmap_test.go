package apexmap

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/simmpi"
)

func cfg() Config {
	c := DefaultConfig()
	c.TableSize = 1 << 12
	c.Accesses = 64
	c.Rounds = 2
	return c
}

func TestValidation(t *testing.T) {
	bad := cfg()
	bad.Alpha = 0
	if err := bad.validate(4); err == nil {
		t.Error("alpha 0 accepted")
	}
	bad = cfg()
	bad.L = 1 << 20
	if err := bad.validate(4); err == nil {
		t.Error("oversized block accepted")
	}
	bad = cfg()
	bad.TableSize = 2
	if err := bad.validate(4); err == nil {
		t.Error("undersized table accepted")
	}
}

func TestRunProducesRate(t *testing.T) {
	res, err := Run(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.AccessPerUs <= 0 {
		t.Errorf("nonpositive access rate: %+v", res)
	}
	if res.RemoteFrac < 0 || res.RemoteFrac > 1 {
		t.Errorf("remote fraction %g out of range", res.RemoteFrac)
	}
}

func TestLowAlphaIsMoreLocal(t *testing.T) {
	// Small alpha concentrates accesses near the rank's own base, so the
	// remote fraction must rise with alpha.
	frac := func(alpha float64) float64 {
		c := cfg()
		c.Alpha = alpha
		res, err := Run(context.Background(), simmpi.Config{Machine: machine.Bassi, Procs: 8}, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.RemoteFrac
	}
	if lo, hi := frac(0.05), frac(1.0); lo >= hi {
		t.Errorf("remote fraction not increasing with alpha: %g vs %g", lo, hi)
	}
}

func TestLocalityHelpsPerformance(t *testing.T) {
	// High temporal locality (small alpha) must sustain a higher access
	// rate than uniform random access — the Apex-MAP signature.
	rate := func(alpha float64) float64 {
		c := cfg()
		c.Alpha = alpha
		res, err := Run(context.Background(), simmpi.Config{Machine: machine.BGL, Procs: 16}, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPerUs
	}
	if local, random := rate(0.05), rate(1.0); local <= random {
		t.Errorf("locality did not help: α=0.05 → %.3f, α=1.0 → %.3f", local, random)
	}
}

func TestSpatialBlocksAmortiseLatency(t *testing.T) {
	// Larger L moves more data per access: the per-ELEMENT rate
	// (accesses·L per microsecond) must improve with block length.
	perElem := func(l int) float64 {
		c := cfg()
		c.L = l
		res, err := Run(context.Background(), simmpi.Config{Machine: machine.Jacquard, Procs: 8}, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPerUs * float64(l)
	}
	if small, big := perElem(1), perElem(64); small >= big {
		t.Errorf("block length did not amortise latency: L=1 → %.3f, L=64 → %.3f elem/µs", small, big)
	}
}

func TestSweepCoversPlane(t *testing.T) {
	res, err := Sweep(context.Background(), machine.Phoenix, 8, []float64{0.1, 1.0}, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	for _, r := range res {
		if r.AccessPerUs <= 0 {
			t.Errorf("bad sweep point %+v", r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		res, err := Run(context.Background(), simmpi.Config{Machine: machine.Jaguar, Procs: 8}, cfg())
		if err != nil {
			t.Fatal(err)
		}
		return res.AccessPerUs
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSweepHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, machine.Phoenix, 8, []float64{0.1}, []int{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestPricedRunMatchesWorld runs two (α, L) points on every built-in
// machine through Run after the point's log is recorded, so each run is
// priced, and compares it bit for bit against a world that runs the
// benchmark unrecorded. RemoteFrac is also pinned, so a change to the
// address streams shows.
func TestPricedRunMatchesWorld(t *testing.T) {
	ctx := context.Background()
	for _, pt := range []struct {
		alpha      float64
		l          int
		remoteBits uint64
	}{{0.1, 8, 0x3fd0f80000000000}, {1.0, 64, 0x3fedf40000000000}} {
		c := cfg()
		c.Alpha, c.L = pt.alpha, pt.l
		apps.ResetLogCache()
		if _, err := Run(ctx, simmpi.Config{Machine: machine.Bassi, Procs: 16}, c); err != nil {
			t.Fatal(err) // records
		}
		before := apps.LogCache()
		for _, spec := range machine.All() {
			sim := simmpi.Config{Machine: spec, Procs: 16}
			priced, err := Run(ctx, sim, c)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := world(ctx, sim, c)
			if err != nil {
				t.Fatal(err)
			}
			want := result(sim, c, rep)
			if math.Float64bits(priced.AccessPerUs) != math.Float64bits(want.AccessPerUs) ||
				math.Float64bits(priced.RemoteFrac) != math.Float64bits(want.RemoteFrac) {
				t.Errorf("α=%g L=%d on %s: priced %+v, unrecorded world %+v", pt.alpha, pt.l, spec.Name, priced, want)
			}
			if got := math.Float64bits(priced.RemoteFrac); got != pt.remoteBits {
				t.Errorf("α=%g L=%d on %s: RemoteFrac %v (%#x), want %#x", pt.alpha, pt.l, spec.Name, priced.RemoteFrac, got, pt.remoteBits)
			}
		}
		after := apps.LogCache()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != int64(len(machine.All())) || misses != 0 {
			t.Errorf("α=%g L=%d: %d priced and %d recorded runs, want every machine priced", pt.alpha, pt.l, hits, misses)
		}
	}
}

// TestRemoteFracMatchesStreams checks remoteFrac's threshold shortcut
// against routing every access of every rank's stream by its owner,
// over locality exponents, rank counts, and table sizes that do and do
// not divide among the ranks.
func TestRemoteFracMatchesStreams(t *testing.T) {
	for _, alpha := range []float64{0.02, 0.1, 0.33, 0.5, 0.9, 1} {
		for _, procs := range []int{1, 3, 8, 64} {
			for _, size := range []int{1 << 12, 1000} {
				c := cfg()
				c.Alpha, c.TableSize, c.L = alpha, size, 1
				local := size / procs
				n := c.Rounds * c.Accesses
				var sum float64
				for id := 0; id < procs; id++ {
					s := newStream(c, procs, id)
					var remote float64
					for a := 0; a < n; a++ {
						if s.next()/local != id {
							remote++
						}
					}
					sum += remote / float64(n)
				}
				want := sum / float64(procs)
				if got := remoteFrac(c, procs); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("α=%g P=%d N=%d: remoteFrac %v, streams route %v off-rank", alpha, procs, size, got, want)
				}
			}
		}
	}
}
