package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"

	"repro/internal/jobs"
)

// The /v1/jobs endpoints front the durable async queue (internal/jobs):
//
//	POST   /v1/jobs             submit a job → 202 + Location
//	GET    /v1/jobs             list jobs (state=, kind=, client= filters)
//	GET    /v1/jobs/{id}        one job's record: state and progress
//	GET    /v1/jobs/{id}/result the completed artifact, regenerated from the store
//	GET    /v1/jobs/{id}/stream NDJSON snapshots until terminal
//	DELETE /v1/jobs/{id}        cancel
//
// A server built without a queue (plain New) answers all of them 503 —
// the routes exist so clients get a truthful "not enabled here" rather
// than a 404 that suggests a typo.

// maxJobBody bounds a POSTed job spec; real specs are a few hundred
// bytes of selectors.
const maxJobBody = 1 << 20

// clientKey identifies the submitter for quotas, rate limits, and the
// client= filter: the X-Petasim-Client header when the caller sets one
// (CLIs and proxies that aggregate many users should), else the remote
// host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Petasim-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// jobsEnabled 503s (with a pointer at the missing flag) when the server
// runs without a queue.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.queue == nil {
		writeError(w, http.StatusServiceUnavailable,
			errors.New("async jobs are not enabled on this server (start petasim serve with -jobs-dir)"))
		return false
	}
	return true
}

// writeJobError maps queue errors onto the API statuses: bad specs are
// the caller's 400, quota/rate rejections 429 with Retry-After, unknown
// ids 404, finished jobs 409.
func writeJobError(w http.ResponseWriter, err error) {
	var busy *jobs.TooBusyError
	switch {
	case errors.As(err, &busy):
		secs := int(math.Ceil(busy.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrBadSpec):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrTerminal), errors.Is(err, jobs.ErrNotDone):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// writeJob emits one job record as the response body.
func writeJob(w http.ResponseWriter, status int, job jobs.Job) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(job)
}

func (s *Server) handleJobsPost(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading job spec: %w", err))
		return
	}
	var spec jobs.Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields() // a typo'd selector must not become the everything-sweep
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job spec: %w", err))
		return
	}
	job, err := s.queue.Submit(spec, clientKey(r))
	if err != nil {
		writeJobError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJob(w, http.StatusAccepted, job)
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	q := r.URL.Query()
	f := jobs.Filter{
		State:  jobs.State(q.Get("state")),
		Kind:   q.Get("kind"),
		Client: q.Get("client"),
	}
	if f.State != "" && !f.State.Terminal() && f.State != jobs.StateQueued && f.State != jobs.StateRunning {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown state filter %q", f.State))
		return
	}
	list := s.queue.List(f)
	if list == nil {
		list = []jobs.Job{} // an empty queue is [], not null
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(list)
}

func (s *Server) handleJobsGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeJobError(w, jobs.ErrNotFound)
		return
	}
	writeJob(w, http.StatusOK, job)
}

func (s *Server) handleJobsResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	// Stage to a buffer first: WriteResult streaming straight into the
	// ResponseWriter would commit a 200 before knowing the artifact
	// regenerates, and byte-identity with the sync endpoints forbids
	// appending an error to a half-written body.
	var buf bytes.Buffer
	if err := s.queue.WriteResult(ctx, &buf, r.PathValue("id")); err != nil {
		if ctx.Err() != nil {
			writeRunError(w, err)
			return
		}
		writeJobError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

func (s *Server) handleJobsStream(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	ch, unsub, err := s.queue.Watch(r.PathValue("id"))
	if err != nil {
		writeJobError(w, err)
		return
	}
	defer unsub()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case job := <-ch:
			if err := enc.Encode(job); err != nil {
				return // client gone
			}
			if flusher != nil {
				flusher.Flush()
			}
			if job.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJobsDelete(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	job, err := s.queue.Cancel(r.PathValue("id"))
	if err != nil {
		writeJobError(w, err)
		return
	}
	writeJob(w, http.StatusOK, job)
}
