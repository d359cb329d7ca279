package machine

import (
	"math"
	"testing"
)

// TestAllSpecsValidate is the shared-contract half of spec validation:
// every built-in the registry can serve — the Table 1 testbed, the X1
// variant, and the BG/L virtual-node overlay — passes the same
// Spec.Validate that gates machfile-loaded custom specs and whatif
// perturbations, and the zero Spec fails it. If Validate grows a rule a
// built-in breaks, this fails before any loader does.
func TestAllSpecsValidate(t *testing.T) {
	specs := append(All(), PhoenixX1, BGL.WithMode(VirtualNode), BGW.WithMode(VirtualNode))
	if len(All()) != 6 {
		t.Fatalf("All() returns %d specs, want the paper's six", len(All()))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Error("zero Spec validated; machfile would accept an empty spec file")
	}
}

// TestTable1Transcription cross-checks the published Table 1 values.
func TestTable1Transcription(t *testing.T) {
	cases := []struct {
		s       Spec
		procs   int
		ppn     int
		peak    float64
		stream  float64
		latUs   float64
		bwGBs   float64
		hopNs   float64
		bfRatio float64
	}{
		{Bassi, 888, 8, 7.6, 6.8, 4.7, 0.69, 0, 0.85},
		{Jaguar, 10404, 2, 5.2, 2.5, 5.5, 1.2, 50, 0.48},
		{Jacquard, 640, 2, 4.4, 2.3, 5.2, 0.73, 0, 0.51},
		{BGL, 2048, 2, 2.8, 0.9, 2.2, 0.16, 69, 0.31},
		{BGW, 40960, 2, 2.8, 0.9, 2.2, 0.16, 69, 0.31},
		{Phoenix, 768, 8, 18.0, 9.7, 5.0, 2.9, 0, 0.54},
	}
	for _, c := range cases {
		s := c.s
		if s.TotalProcs != c.procs || s.ProcsPerNode != c.ppn {
			t.Errorf("%s: procs %d/%d, want %d/%d", s.Name, s.TotalProcs, s.ProcsPerNode, c.procs, c.ppn)
		}
		if s.PeakGFs != c.peak || s.StreamGBs != c.stream {
			t.Errorf("%s: peak/stream %g/%g, want %g/%g", s.Name, s.PeakGFs, s.StreamGBs, c.peak, c.stream)
		}
		if math.Abs(s.MPILatency*1e6-c.latUs) > 1e-9 {
			t.Errorf("%s: latency %gus, want %g", s.Name, s.MPILatency*1e6, c.latUs)
		}
		if math.Abs(s.MPIBandwidth/1e9-c.bwGBs) > 1e-9 {
			t.Errorf("%s: bandwidth %g GB/s, want %g", s.Name, s.MPIBandwidth/1e9, c.bwGBs)
		}
		if math.Abs(s.PerHopLat*1e9-c.hopNs) > 1e-9 {
			t.Errorf("%s: per-hop %gns, want %g", s.Name, s.PerHopLat*1e9, c.hopNs)
		}
		// Table 1 rounds the B/F column; allow transcription slack.
		if math.Abs(s.BytesPerFlop()-c.bfRatio) > 0.05 {
			t.Errorf("%s: B/F %.3f, want %.2f (Table 1)", s.Name, s.BytesPerFlop(), c.bfRatio)
		}
	}
}

func TestWithModeVirtualNode(t *testing.T) {
	vn := BGL.WithMode(VirtualNode)
	if vn.Mode != VirtualNode {
		t.Error("mode not set")
	}
	if vn.StreamGBs >= BGL.StreamGBs {
		t.Error("virtual-node mode should reduce per-core stream bandwidth")
	}
	if vn.MPIBandwidth >= BGL.MPIBandwidth {
		t.Error("virtual-node mode should reduce per-core MPI bandwidth")
	}
	// Non-BG/L machines are unaffected.
	if got := Bassi.WithMode(VirtualNode); got.Name != Bassi.Name || got.StreamGBs != Bassi.StreamGBs {
		t.Error("WithMode altered a non-BG/L machine")
	}
}

func TestEffectivePeakBGLHalved(t *testing.T) {
	// The paper: "BG/L peak performance is most likely to be only half of
	// the stated peak" without double-hummer saturation.
	if got, want := BGL.EffectivePeak(), 1.4e9; got != want {
		t.Errorf("BG/L effective peak %g, want %g", got, want)
	}
	if got, want := Bassi.EffectivePeak(), 7.6e9; got != want {
		t.Errorf("Bassi effective peak %g, want %g", got, want)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		func() Spec { s := Bassi; s.TotalProcs = 7; return s }(),  // not divisible
		func() Spec { s := Bassi; s.IssueEff = 1.5; return s }(),  // >1
		func() Spec { s := Phoenix; s.ScalarGFs = 0; return s }(), // vector w/o scalar
		func() Spec { s := Jaguar; s.MPILatency = 0; return s }(), // no latency
		func() Spec { s := Jaguar; s.StreamGBs = -1; return s }(), // negative
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec validated", i)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("got %d names, want 6", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestMathCostOrdering(t *testing.T) {
	// Vendor libraries must be at least as fast as libm everywhere, and
	// vector forms at least as fast as scalar: otherwise the paper's
	// optimisation studies would go the wrong way.
	for _, s := range All() {
		if s.Math.Scalar > s.Math.Libm {
			t.Errorf("%s: scalar vendor lib slower than libm", s.Name)
		}
		if s.Math.Vector > s.Math.Scalar {
			t.Errorf("%s: vector lib slower than scalar lib", s.Name)
		}
	}
	mc := MathCosts{Libm: 3, Scalar: 2, Vector: 1}
	if mc.Cost(LibmDefault) != 3 || mc.Cost(VendorScalar) != 2 || mc.Cost(VendorVector) != 1 {
		t.Error("MathCosts.Cost dispatches incorrectly")
	}
}
