package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestJobResultMatchesSyncRoute runs one job of each kind and checks
// that its /result artifact equals the body of the matching synchronous
// route byte for byte.
func TestJobResultMatchesSyncRoute(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	for _, tc := range []struct {
		name, spec, route string
	}{
		{
			"two-app sweep",
			`{"kind":"sweep","apps":["gtc","cactus"],"machines":["bassi","jaguar"],"procs":[64]}`,
			"/v1/sweep?app=gtc,cactus&machine=bassi,jaguar&procs=64",
		},
		{"figure 2", `{"kind":"figure","figure":2}`, "/v1/figures/2"},
		{"figure 8", `{"kind":"figure","figure":8}`, "/v1/figures/8"},
		{
			"whatif grid",
			`{"kind":"whatif","apps":["gtc"],"machines":["bassi","jacquard"],"procs":[64],"perturb":"stream=20,latency=50","steps":2}`,
			"/v1/whatif?app=gtc&machine=bassi,jacquard&procs=64&perturb=stream%3D20%2Clatency%3D50&steps=2",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The sync route runs first and simulates cold (it has no
			// deadline), so the job's attempt is served from the warm
			// store and finishes within pollDone's deadline even for
			// Figure 8 under the race detector.
			resp, sync := get(t, ts.URL+tc.route)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s status %d: %s", tc.route, resp.StatusCode, sync)
			}
			job, resp := submitJob(t, ts, tc.spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status %d", resp.StatusCode)
			}
			pollDone(t, ts, job.ID)
			resp, artifact := get(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result status %d: %s", resp.StatusCode, artifact)
			}
			if !bytes.Equal(artifact, sync) {
				t.Fatalf("job artifact differs from %s:\njob:  %s\nsync: %s", tc.route, artifact, sync)
			}
		})
	}
}
