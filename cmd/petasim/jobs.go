package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
)

// The `petasim jobs` subcommands are a thin HTTP client for a running
// `petasim serve -jobs-dir` instance's /v1/jobs API:
//
//	petasim jobs submit [-kind sweep|figure|whatif] [selectors] [-wait]
//	petasim jobs list   [-state S] [-kind K] [-client C]
//	petasim jobs get    ID
//	petasim jobs result ID       (raw artifact, byte-identical to the sync endpoint)
//	petasim jobs watch  ID       (NDJSON snapshots until the job is terminal)
//	petasim jobs cancel ID
//
// Every subcommand takes -server URL (default $PETASIM_SERVER, else
// http://localhost:8080) and -client NAME (the X-Petasim-Client
// identity for quotas and filtering; default $PETASIM_CLIENT).

// jobsClient carries the connection identity every subcommand shares.
type jobsClient struct {
	server string
	client string
	out    io.Writer
}

// jobsFlags registers the shared -server/-client flags on a
// subcommand's flag set.
func jobsFlags(fs *flag.FlagSet) (server, client *string) {
	defServer := os.Getenv("PETASIM_SERVER")
	if defServer == "" {
		defServer = "http://localhost:8080"
	}
	server = fs.String("server", defServer, "base URL of the petasim server")
	client = fs.String("client", os.Getenv("PETASIM_CLIENT"), "client identity (X-Petasim-Client header)")
	return server, client
}

// runJobs dispatches `petasim jobs <subcommand> [flags] [ID]`.
func runJobs(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("jobs needs a subcommand: submit, list, get, result, watch, cancel")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		return jobsSubmit(ctx, rest, out)
	case "list":
		return jobsList(ctx, rest, out)
	case "get", "result", "watch", "cancel":
		fs := flag.NewFlagSet("jobs "+sub, flag.ContinueOnError)
		server, client := jobsFlags(fs)
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("jobs %s needs exactly one job ID", sub)
		}
		jc := jobsClient{server: *server, client: *client, out: out}
		id := fs.Arg(0)
		switch sub {
		case "get":
			return jc.get(ctx, id)
		case "result":
			return jc.result(ctx, id)
		case "watch":
			return jc.watch(ctx, id)
		default:
			return jc.cancel(ctx, id)
		}
	default:
		return fmt.Errorf("unknown jobs subcommand %q (try: submit list get result watch cancel)", sub)
	}
}

// jobsSubmit builds a job spec from the sweep/whatif selector flags and
// POSTs it; -wait follows the job's stream until it is terminal.
func jobsSubmit(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs submit", flag.ContinueOnError)
	server, client := jobsFlags(fs)
	kind := fs.String("kind", jobs.KindSweep, "job kind: sweep, figure, or whatif")
	appList := fs.String("app", "", "comma-separated workload names (whatif: exactly one)")
	machineList := fs.String("machine", "", "comma-separated machine names")
	procsList := fs.String("procs", "", "comma-separated processor counts")
	figure := fs.Int("figure", 0, "figure number 2..8 (kind figure)")
	perturb := fs.String("perturb", "", "whatif: comma-separated knob=±X% perturbations")
	steps := fs.Int("steps", 0, "whatif: perturbation grid points per side")
	wait := fs.Bool("wait", false, "follow the job's stream until it finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("jobs submit takes selectors as flags, not arguments (got %q)", fs.Arg(0))
	}
	procs, err := experiments.ParseProcs(*procsList)
	if err != nil {
		return err
	}
	spec := jobs.Spec{
		Kind:     *kind,
		Apps:     experiments.SplitList(*appList),
		Machines: experiments.SplitList(*machineList),
		Procs:    procs,
		Figure:   *figure,
		Perturb:  *perturb,
		Steps:    *steps,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	jc := jobsClient{server: *server, client: *client, out: out}
	data, err := jc.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var job jobs.Job
	if err := json.Unmarshal(data, &job); err != nil {
		return fmt.Errorf("jobs submit: undecodable response: %w", err)
	}
	fmt.Fprintf(out, "submitted %s (%s)\n", job.ID, job.State)
	if !*wait {
		return nil
	}
	return jc.watch(ctx, job.ID)
}

// jobsList prints the server's matching jobs, one line each.
func jobsList(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jobs list", flag.ContinueOnError)
	server, client := jobsFlags(fs)
	state := fs.String("state", "", "filter: queued, running, done, failed, cancelled")
	kind := fs.String("kind", "", "filter: sweep, figure, whatif")
	byClient := fs.String("by-client", "", "filter: one submitter's jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	for k, v := range map[string]string{"state": *state, "kind": *kind, "client": *byClient} {
		if v != "" {
			q.Set(k, v)
		}
	}
	path := "/v1/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	jc := jobsClient{server: *server, client: *client, out: out}
	data, err := jc.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	var list []jobs.Job
	if err := json.Unmarshal(data, &list); err != nil {
		return fmt.Errorf("jobs list: undecodable response: %w", err)
	}
	for _, j := range list {
		fmt.Fprintln(out, jobLine(j))
	}
	return nil
}

// jobLine renders one job as a stable single line:
// ID  STATE  KIND  done/total  [retries=N]  [client]  [error].
func jobLine(j jobs.Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-9s  %-6s  %d/%d", j.ID, j.State, j.Spec.Kind, j.Progress.Done, j.Progress.Total)
	if j.Retries > 0 {
		fmt.Fprintf(&b, "  retries=%d", j.Retries)
	}
	if j.Client != "" {
		fmt.Fprintf(&b, "  client=%s", j.Client)
	}
	if j.Error != "" {
		fmt.Fprintf(&b, "  error=%q", j.Error)
	}
	return b.String()
}

// get prints one job's record — state and progress, the server's JSON
// body; the artifact itself is `result`.
func (jc jobsClient) get(ctx context.Context, id string) error {
	data, err := jc.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	_, err = jc.out.Write(data)
	return err
}

// result streams the raw completed artifact — byte-identical to the
// synchronous endpoint's body for the same request, so it byte-compares
// against CLI -json artifacts.
func (jc jobsClient) result(ctx context.Context, id string) error {
	data, err := jc.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return err
	}
	_, err = jc.out.Write(data)
	return err
}

// watch follows the job's NDJSON stream, printing one progress line per
// snapshot, and exits nonzero if the job ends failed or cancelled.
func (jc jobsClient) watch(ctx context.Context, id string) error {
	resp, err := jc.request(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}
	var last jobs.Job
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("jobs watch: undecodable stream line: %w", err)
		}
		fmt.Fprintln(jc.out, jobLine(last))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	switch last.State {
	case jobs.StateDone:
		return nil
	case "":
		return errors.New("jobs watch: stream ended without a snapshot")
	default:
		return fmt.Errorf("job %s ended %s", id, last.State)
	}
}

// cancel DELETEs the job and prints the record the server returns.
func (jc jobsClient) cancel(ctx context.Context, id string) error {
	data, err := jc.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	_, err = jc.out.Write(data)
	return err
}

// request issues one HTTP call with the client identity header set.
func (jc jobsClient) request(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(jc.server, "/")+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if jc.client != "" {
		req.Header.Set("X-Petasim-Client", jc.client)
	}
	return http.DefaultClient.Do(req)
}

// do is request plus whole-body read and non-2xx error mapping.
func (jc jobsClient) do(ctx context.Context, method, path string, body io.Reader) ([]byte, error) {
	resp, err := jc.request(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, responseError(resp)
	}
	return io.ReadAll(resp.Body)
}

// responseError turns a non-2xx response into a readable error,
// surfacing the server's {"error": ...} body and any Retry-After hint.
func responseError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(data))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		msg = body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := time.ParseDuration(ra + "s"); err == nil {
			return fmt.Errorf("%s: %s (retry after %s)", resp.Status, msg, secs)
		}
	}
	return fmt.Errorf("%s: %s", resp.Status, msg)
}
