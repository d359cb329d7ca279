// Package jobs is the durable asynchronous job subsystem behind the
// service's /v1/jobs API: a Queue accepts sweep/figure/whatif requests
// as schema-versioned job records, persists every state transition as a
// WAL-style JSON append under a jobs directory, and executes them on
// the shared simulation pool through a bounded dispatcher with per-job
// retry/backoff and context cancellation.
//
// The life of a job is a small state machine:
//
//	                 ┌────────────────────────┐
//	                 │ (restart re-enqueues)  │
//	                 ▼                        │
//	submit ──► queued ──► running ──► done    │
//	              │          │  │             │
//	              │          │  └── failed    │
//	              │          │  (retries
//	              │          │   exhausted)
//	              ▼          ▼
//	           cancelled  cancelled
//
// Durability is per-job write-ahead logging: <dir>/<id>.wal holds one
// JSON line per event — a create record carrying the full job, then one
// line per state transition or retry. A restarted queue replays every
// WAL: terminal jobs are listed as history, queued jobs are re-enqueued,
// and jobs that were running when the process died are re-enqueued
// exactly once (the requeue is itself a logged transition). A torn
// final line — the signature of a crash mid-append — is discarded
// cleanly; the job recovers to its last durable state.
//
// Results are not persisted here: every simulated point lands in the
// pool's result Store under its content key, so a completed job's body
// is regenerated on demand by re-executing its plan against the warm
// store — byte-identical to the synchronous endpoint's response, and
// served without re-simulation.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// SchemaVersion stamps every job record and WAL entry. Bump it when the
// record shape changes incompatibly; replay rejects newer schemas
// instead of guessing.
const SchemaVersion = 1

// State is a job's position in the lifecycle state machine.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the five lifecycle states.
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// validTransition is the state machine: queued jobs start running or
// are cancelled; running jobs finish, fail, are cancelled, or are
// re-enqueued (recovery after a crash mid-run). Terminal states accept
// nothing.
func validTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCancelled
	case StateRunning:
		return to == StateDone || to == StateFailed || to == StateCancelled || to == StateQueued
	}
	return false
}

// Kind names the request shapes a job can carry.
const (
	KindSweep  = "sweep"
	KindFigure = "figure"
	KindWhatIf = "whatif"
)

// Spec is the schema-versioned request a job executes; the synchronous
// endpoints parse their selectors into one too, so both plan it the
// same way (EngineExecutor.Plan). Exactly one Kind's fields apply; the
// executor validates the whole spec at submission time so a bad spec
// is rejected before it is ever queued.
type Spec struct {
	// Kind selects the request shape: sweep, figure, or whatif.
	Kind string `json:"kind"`
	// Apps/Machines/Procs are the sweep selectors (empty = everything),
	// also used by whatif (which requires exactly one app).
	Apps     []string `json:"apps,omitempty"`
	Machines []string `json:"machines,omitempty"`
	Procs    []int    `json:"procs,omitempty"`
	// Figure is the paper figure number (2..8) for Kind "figure".
	Figure int `json:"figure,omitempty"`
	// Perturb and Steps are the whatif grid parameters.
	Perturb string `json:"perturb,omitempty"`
	Steps   int    `json:"steps,omitempty"`
}

// Progress counts a job's execution. Each attempt runs on its own view
// of the shared pool, and every counter is read from that view's
// served-from tally (runner.Stats). Counters reset when a retry re-runs
// the job, so they always describe the attempt in progress. Progress is
// in-memory only — a recovered job restarts its counters with its
// re-run.
type Progress struct {
	// Total is the planned point count (0 until the plan is expanded).
	Total int `json:"total"`
	// Done counts completed points, failed ones included.
	Done int `json:"done"`
	// Failed counts points that returned an error.
	Failed int `json:"failed"`
	// Simulated/MemHits/DiskHits/Deduped split Done-Failed by
	// served-from provenance.
	Simulated int `json:"simulated"`
	MemHits   int `json:"mem_hits"`
	DiskHits  int `json:"disk_hits"`
	Deduped   int `json:"deduped"`
}

// Job is one queued request's full record — what GET /v1/jobs/{id}
// returns and what the WAL's create entry persists.
type Job struct {
	// Schema is the record's schema version (SchemaVersion at write).
	Schema int `json:"schema"`
	// ID is the queue-assigned identifier (16 hex chars).
	ID string `json:"id"`
	// Client identifies the submitter for quotas and filtering.
	Client string `json:"client,omitempty"`
	// Spec is the request to execute.
	Spec Spec `json:"spec"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Progress is the live execution counters (in-memory only).
	Progress Progress `json:"progress"`
	// Retries counts re-runs after transient failures.
	Retries int `json:"retries"`
	// Error carries the terminal failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// Created/Started/Finished are the lifecycle timestamps.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
}

// newID mints a random 16-hex-char job identifier. Randomness (not a
// counter) keeps IDs unique across restarts without coordinating
// through the WAL directory.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; there is no
		// reasonable fallback for an identifier that must not collide.
		panic(fmt.Sprintf("jobs: reading random job id: %v", err))
	}
	return hex.EncodeToString(b[:])
}
