// Package machine defines the architectural models of the six HEC platforms
// evaluated in the paper (Table 1), plus the knobs needed by the processor
// and network performance models.
//
// Published quantities (peak Gflop/s, STREAM triad bandwidth, MPI latency
// and bandwidth, node sizes, per-hop latencies) are transcribed directly
// from Table 1 and its footnotes. Quantities the paper does not publish —
// memory latency, memory-level parallelism, the X1E scalar-unit rate, math
// library call costs — are calibrated once against the paper's reported
// percentage-of-peak anchor points; see internal/perfmodel and DESIGN.md §5.
package machine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// TopoKind names the interconnect topology class of a platform.
type TopoKind string

const (
	// FatTree is a full-bisection multistage network (Federation, InfiniBand).
	FatTree TopoKind = "fattree"
	// Torus3D is a 3D torus (XT3 SeaStar, BG/L).
	Torus3D TopoKind = "3dtorus"
	// Hypercube is the modified hypercube of the X1E.
	Hypercube TopoKind = "hypercube"
	// Crossbar is an idealised fully connected network (used in tests).
	Crossbar TopoKind = "crossbar"
)

// MathLib identifies which math library variant a code was built against.
// The paper's GTC study shows ~30% from switching sin/cos/exp to MASS/MASSV
// on BG/L, and ELBM3D gains 15–30% from vendor vector log() routines.
type MathLib int

const (
	// LibmDefault is the stock libm (the slow GNU libm on BG/L).
	LibmDefault MathLib = iota
	// VendorScalar is the vendor-tuned scalar library (MASS, ACML scalar).
	VendorScalar
	// VendorVector is the vectorised variant (MASSV, ACML vector forms).
	VendorVector
)

// MathCosts models the per-call *excess* cost of a heavy transcendental
// (log/exp/sin/cos) under each library variant, over and above the
// polynomial flops already counted in the kernel's flop total. A perfectly
// pipelined vector library has a small excess; a slow scalar libm (the GNU
// libm on BG/L) has a large one.
type MathCosts struct {
	Libm   vtime.Seconds // default library, per call
	Scalar vtime.Seconds // vendor scalar library, per call
	Vector vtime.Seconds // vendor vector library, per element
}

// Cost returns the per-call cost under the given library variant.
func (mc MathCosts) Cost(lib MathLib) vtime.Seconds {
	switch lib {
	case VendorScalar:
		return mc.Scalar
	case VendorVector:
		return mc.Vector
	default:
		return mc.Libm
	}
}

// BGLMode selects how the two cores of a BG/L node are used.
type BGLMode int

const (
	// ModeDefault applies to all non-BG/L machines.
	ModeDefault BGLMode = iota
	// Coprocessor dedicates the second core to communication.
	Coprocessor
	// VirtualNode uses both cores for computation and communication.
	VirtualNode
)

// Spec describes one evaluated platform. Fields in the first block are
// published in Table 1; the second block holds calibrated model constants.
type Spec struct {
	Name     string
	Site     string // hosting site, for documentation
	Arch     string // processor architecture
	Network  string // interconnect family
	Topology TopoKind

	TotalProcs   int     // total processors in the installation
	ProcsPerNode int     // processors (or MSPs) per node
	ClockGHz     float64 // processor clock
	PeakGFs      float64 // peak Gflop/s per processor
	StreamGBs    float64 // measured EP-STREAM triad GB/s per processor
	MPILatency   vtime.Seconds
	MPIBandwidth float64       // bytes/s per processor pair, bidirectional exchange
	PerHopLat    vtime.Seconds // additional latency per torus hop (0 if n/a)

	// Calibrated model constants (not published in Table 1).
	MemLatency vtime.Seconds // random main-memory access latency
	MemMLP     float64       // sustained memory-level parallelism on random access
	IssueEff   float64       // achievable fraction of stated peak for ideal code
	Vector     bool          // vector (multi-streaming) processor
	ScalarGFs  float64       // effective scalar-unit Gflop/s (vector machines)
	VectorMLP  float64       // MLP of hardware gather/scatter (vector machines)
	Math       MathCosts

	// Mode is only meaningful for BG/L-family systems.
	Mode BGLMode
}

// IsBGL reports whether the spec models a Blue Gene/L system.
func (s Spec) IsBGL() bool { return s.Arch == "PPC440" }

// BytesPerFlop returns the STREAM-bandwidth-to-peak ratio (the B/F column
// of Table 1).
func (s Spec) BytesPerFlop() float64 { return s.StreamGBs / s.PeakGFs }

// Nodes returns the number of nodes in the full installation.
func (s Spec) Nodes() int { return s.TotalProcs / s.ProcsPerNode }

// EffectivePeak returns the realistically attainable peak in flop/s.
// On BG/L this is half the stated peak unless the double-FPU "double
// hummer" is saturated, which the paper notes compilers rarely achieve.
func (s Spec) EffectivePeak() float64 { return s.PeakGFs * 1e9 * s.IssueEff }

// WithMode returns a copy of the spec with the BG/L execution mode set.
// In virtual-node mode both cores compute, so the per-processor share of
// node memory bandwidth halves; the paper reports GTC retains >95%
// efficiency regardless, because GTC is latency- not bandwidth-bound.
func (s Spec) WithMode(m BGLMode) Spec {
	if !s.IsBGL() {
		return s
	}
	out := s
	out.Mode = m
	if m == VirtualNode {
		out.Name = s.Name + "-vn"
		// Both cores now share the node memory and network interfaces.
		out.StreamGBs = s.StreamGBs * 0.55
		out.MPIBandwidth = s.MPIBandwidth * 0.5
	}
	return out
}

func (s Spec) String() string {
	return fmt.Sprintf("%s (%s, %s, %d procs, %.1f GF/s/P)",
		s.Name, s.Arch, s.Network, s.TotalProcs, s.PeakGFs)
}

// Validate checks that a spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("machine: spec has no name")
	case s.TotalProcs <= 0 || s.ProcsPerNode <= 0:
		return fmt.Errorf("machine %s: nonpositive processor counts", s.Name)
	case s.TotalProcs%s.ProcsPerNode != 0:
		return fmt.Errorf("machine %s: %d procs not divisible by %d per node",
			s.Name, s.TotalProcs, s.ProcsPerNode)
	case s.PeakGFs <= 0 || s.StreamGBs <= 0:
		return fmt.Errorf("machine %s: nonpositive compute/bandwidth rates", s.Name)
	case s.MPILatency <= 0 || s.MPIBandwidth <= 0:
		return fmt.Errorf("machine %s: nonpositive MPI parameters", s.Name)
	case s.IssueEff <= 0 || s.IssueEff > 1:
		return fmt.Errorf("machine %s: IssueEff %g outside (0,1]", s.Name, s.IssueEff)
	case s.MemMLP <= 0:
		return fmt.Errorf("machine %s: nonpositive MemMLP", s.Name)
	case s.Vector && s.ScalarGFs <= 0:
		return fmt.Errorf("machine %s: vector machine needs ScalarGFs", s.Name)
	}
	return nil
}

// The evaluated testbed, per Table 1. Calibrated fields follow the fitting
// described in internal/perfmodel/calibration_test.go.
var (
	// Bassi: LBNL IBM Power5 cluster on HPS Federation (fat-tree).
	Bassi = Spec{
		Name: "Bassi", Site: "LBNL", Arch: "Power5", Network: "Federation",
		Topology: FatTree, TotalProcs: 888, ProcsPerNode: 8,
		ClockGHz: 1.9, PeakGFs: 7.6, StreamGBs: 6.8,
		MPILatency: vtime.Micro(4.7), MPIBandwidth: 0.69e9,
		MemLatency: vtime.Nano(140), MemMLP: 4, IssueEff: 1.0,
		Math: MathCosts{Libm: vtime.Nano(18), Scalar: vtime.Nano(8), Vector: vtime.Nano(1.5)},
	}

	// Jaguar: ORNL dual-core Opteron Cray XT3 (3D torus, 50 ns/hop).
	Jaguar = Spec{
		Name: "Jaguar", Site: "ORNL", Arch: "Opteron", Network: "XT3",
		Topology: Torus3D, TotalProcs: 10404, ProcsPerNode: 2,
		ClockGHz: 2.6, PeakGFs: 5.2, StreamGBs: 2.5,
		MPILatency: vtime.Micro(5.5), MPIBandwidth: 1.2e9,
		PerHopLat:  vtime.Nano(50),
		MemLatency: vtime.Nano(70), MemMLP: 4, IssueEff: 1.0,
		Math: MathCosts{Libm: vtime.Nano(22), Scalar: vtime.Nano(10), Vector: vtime.Nano(2)},
	}

	// Jacquard: LBNL single-core Opteron cluster on InfiniBand (fat-tree).
	Jacquard = Spec{
		Name: "Jacquard", Site: "LBNL", Arch: "Opteron", Network: "InfiniBand",
		Topology: FatTree, TotalProcs: 640, ProcsPerNode: 2,
		ClockGHz: 2.2, PeakGFs: 4.4, StreamGBs: 2.3,
		MPILatency: vtime.Micro(5.2), MPIBandwidth: 0.73e9,
		MemLatency: vtime.Nano(70), MemMLP: 4, IssueEff: 1.0,
		Math: MathCosts{Libm: vtime.Nano(24), Scalar: vtime.Nano(11), Vector: vtime.Nano(2.5)},
	}

	// BGL: the ANL 2048-processor Blue Gene/L (coprocessor mode by default;
	// 2.2 µs minimum torus latency, 69 ns/hop).
	BGL = Spec{
		Name: "BG/L", Site: "ANL", Arch: "PPC440", Network: "Custom",
		Topology: Torus3D, TotalProcs: 2048, ProcsPerNode: 2,
		ClockGHz: 0.7, PeakGFs: 2.8, StreamGBs: 0.9,
		MPILatency: vtime.Micro(2.2), MPIBandwidth: 0.16e9,
		PerHopLat:  vtime.Nano(69),
		MemLatency: vtime.Nano(90), MemMLP: 1.1, IssueEff: 0.5,
		Math: MathCosts{Libm: vtime.Nano(100), Scalar: vtime.Nano(30), Vector: vtime.Nano(6)},
		Mode: Coprocessor,
	}

	// BGW: the 40960-processor Blue Gene/L at IBM T.J. Watson; identical
	// node architecture to BGL, much larger torus.
	BGW = Spec{
		Name: "BGW", Site: "TJW", Arch: "PPC440", Network: "Custom",
		Topology: Torus3D, TotalProcs: 40960, ProcsPerNode: 2,
		ClockGHz: 0.7, PeakGFs: 2.8, StreamGBs: 0.9,
		MPILatency: vtime.Micro(2.2), MPIBandwidth: 0.16e9,
		PerHopLat:  vtime.Nano(69),
		MemLatency: vtime.Nano(90), MemMLP: 1.1, IssueEff: 0.5,
		Math: MathCosts{Libm: vtime.Nano(100), Scalar: vtime.Nano(30), Vector: vtime.Nano(6)},
		Mode: Coprocessor,
	}

	// Phoenix: ORNL Cray X1E, multi-streaming vector processors (MSPs) on
	// the Cray custom modified-hypercube switch. The dominant calibrated
	// constant is the very slow effective scalar unit, which the paper
	// identifies as the cause of poor Cactus/HyperCLaw performance.
	Phoenix = Spec{
		Name: "Phoenix", Site: "ORNL", Arch: "X1E", Network: "Custom",
		Topology: Hypercube, TotalProcs: 768, ProcsPerNode: 8,
		ClockGHz: 1.1, PeakGFs: 18.0, StreamGBs: 9.7,
		MPILatency: vtime.Micro(5.0), MPIBandwidth: 2.9e9,
		MemLatency: vtime.Nano(110), MemMLP: 4, IssueEff: 1.0,
		Vector: true, ScalarGFs: 0.08, VectorMLP: 48,
		Math: MathCosts{Libm: vtime.Nano(60), Scalar: vtime.Nano(40), Vector: vtime.Nano(1)},
	}

	// PhoenixX1 models the older X1 nodes used for the paper's Cactus data
	// (Figure 4 note: "Phoenix data shown on Cray X1 platform").
	PhoenixX1 = Spec{
		Name: "Phoenix-X1", Site: "ORNL", Arch: "X1E", Network: "Custom",
		Topology: Hypercube, TotalProcs: 512, ProcsPerNode: 4,
		ClockGHz: 0.8, PeakGFs: 12.8, StreamGBs: 7.0,
		MPILatency: vtime.Micro(7.0), MPIBandwidth: 2.0e9,
		MemLatency: vtime.Nano(130), MemMLP: 4, IssueEff: 1.0,
		Vector: true, ScalarGFs: 0.08, VectorMLP: 48,
		Math: MathCosts{Libm: vtime.Nano(80), Scalar: vtime.Nano(50), Vector: vtime.Nano(1.5)},
	}
)

// All returns the standard evaluated testbed in the paper's Table 1 order.
func All() []Spec {
	return []Spec{Bassi, Jaguar, Jacquard, BGL, BGW, Phoenix}
}

// Names returns the sorted names of the standard testbed.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Find looks up a spec by forgiving name — case-insensitive, ignoring
// punctuation — among the standard testbed plus the X1 variant, so CLI
// selectors like "bgl", "BG/L" and "phoenix-x1" all resolve.
func Find(name string) (Spec, error) {
	candidates := append(All(), PhoenixX1)
	want := FoldName(name)
	known := make([]string, len(candidates))
	for i, s := range candidates {
		if FoldName(s.Name) == want {
			return s, nil
		}
		known[i] = s.Name
	}
	return Spec{}, fmt.Errorf("machine: unknown machine %q (known: %s)",
		name, strings.Join(known, ", "))
}

// FoldName lowercases a name and strips punctuation — the folding rule
// shared by the CLI's forgiving machine and workload selectors.
func FoldName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}
