package jobs

import (
	"context"
	"errors"
	"testing"

	"repro/internal/runner"
)

// TestDrainDerivesProgressFromTheView: a streamed batch with one
// failing point ends on a snapshot read from the pool view's tally —
// the failed point is the one no served-from counter claims — and the
// attempt fails naming how many points failed.
func TestDrainDerivesProgressFromTheView(t *testing.T) {
	boom := errors.New("boom")
	point := func(err error) runner.Job {
		return runner.Job{Run: func(context.Context) (runner.Result, error) { return runner.Result{}, err }}
	}
	batch := []runner.Job{point(nil), point(boom), point(nil)}
	ctx := context.Background()
	view := (&runner.Pool{Workers: 2}).View()
	var reports []Progress
	err := drain(ctx, view, batch, func(p Progress) { reports = append(reports, p) })

	// The pool's workers start before drain's up-front report, so that
	// report may already count a point; only its total is fixed.
	if len(reports) != 1+len(batch) || reports[0].Total != 3 {
		t.Fatalf("reports %+v, want the planned total first and one per point", reports)
	}
	if got, want := reports[len(reports)-1], (Progress{Total: 3, Done: 3, Failed: 1, Simulated: 2}); got != want {
		t.Fatalf("final progress %+v, want %+v", got, want)
	}
	if !errors.Is(err, boom) || err.Error() != "1 of 3 points failed: boom" {
		t.Fatalf("attempt error %v, want 1 of 3 points failed wrapping boom", err)
	}
}
