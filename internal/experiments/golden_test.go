package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOpts are the capped quick options the golden files were rendered
// with: the -quick concurrency caps plus a 128-processor ceiling so the
// pinned cross-product stays test-sized.
func goldenOpts() Options {
	return Options{Quick: true, MaxProcs: 128, Runner: &runner.Pool{Workers: 8}}
}

// TestGoldenFigures pins the rendered output of Figures 2-7 byte-for-byte:
// the table-driven registry path must reproduce exactly what the
// hand-written per-figure builders emitted. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	builders := []struct {
		name  string
		build func(context.Context, Options) (*Figure, error)
	}{
		{"figure2", Fig2GTC},
		{"figure3", Fig3ELBM3D},
		{"figure4", Fig4Cactus},
		{"figure5", Fig5BeamBeam3D},
		{"figure6", Fig6PARATEC},
		{"figure7", Fig7HyperCLaw},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			fig, err := b.build(context.Background(), goldenOpts())
			if err != nil {
				t.Fatal(err)
			}
			// The CLI's per-figure output: the two table panels followed
			// by the Gflop/s chart.
			var buf bytes.Buffer
			if err := fig.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if err := fig.RenderChart(&buf, "gflops"); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, b.name, buf.Bytes())
		})
	}
}

// checkGolden compares got against testdata/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverged from golden:\n--- got ---\n%s--- want ---\n%s",
			name, firstDiffContext(string(got), string(want)), string(want))
	}
}

// TestGoldenFig1 pins Figure 1 byte-for-byte: the six topology panels
// in registry order, exactly what `petasim fig1` writes. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenFig1 -update
func TestGoldenFig1(t *testing.T) {
	results, err := Fig1Rendered(context.Background(), goldenOpts(), 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		buf.WriteString(r.Output)
	}
	checkGolden(t, "figure1", buf.Bytes())
}

// firstDiffContext trims the got-output to the region around the first
// differing line, keeping failure messages readable.
func firstDiffContext(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(g) {
				hi = len(g)
			}
			return strings.Join(g[lo:hi], "\n") + "\n"
		}
	}
	return got
}
