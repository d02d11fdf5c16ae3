// Package journal gives the job server a crash-safe, append-only record of
// job lifecycle events. Every accepted job is written to a JSONL file
// before it is queued, and again at each state transition; after a crash,
// replaying the journal tells the server exactly which jobs were accepted
// but never finished, so it can re-run them. Because every placement flow
// is deterministic in its request (spec, seed, scale), a replayed job
// produces metrics identical to what the crashed process would have
// returned.
//
// The format is one JSON object per line (JSONL). Appends are flushed and
// fsynced per entry — jobs run for seconds, so durability costs nothing
// measurable — and a crash can therefore corrupt at most the final,
// partially-written line. ReadAll tolerates that: unparseable lines are
// counted and skipped, never fatal, so recovery cannot be wedged by the
// very crash it exists to survive.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FileName is the journal file inside the journal directory.
const FileName = "jobs.jsonl"

// Lifecycle events. Submitted carries the job request; Failed carries the
// error string; Leased carries the owning backend and the lease deadline;
// Rerouted carries the backend the job left, and the Leased entry that
// follows names its new owner; the rest are bare transitions. The
// lease events are informational for replay — a job that was leased but
// never reached a terminal event is still pending, exactly like a started
// one — but they make the journal a complete audit trail: the chaos suite
// proves exactly-once completion by counting terminal events per job.
const (
	EventSubmitted    = "submitted"
	EventStarted      = "started"
	EventLeased       = "leased"
	EventLeaseExpired = "lease_expired"
	EventRerouted     = "rerouted"
	EventDone         = "done"
	EventFailed       = "failed"
	EventCanceled     = "canceled"
)

// Entry is one journal line.
type Entry struct {
	// Seq is the job's numeric sequence (monotone per server lifetime;
	// replay restores the counter past the highest seen).
	Seq int64 `json:"seq"`
	// Job is the job ID ("job-7").
	Job string `json:"job"`
	// Event is one of the Event* constants.
	Event string `json:"event"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Request is the original job request, set on EventSubmitted only.
	Request json.RawMessage `json:"request,omitempty"`
	// Error is the failure message, set on EventFailed only.
	Error string `json:"error,omitempty"`
	// Backend names a scheduler lane: the owner on EventLeased, the lane
	// the job left on EventRerouted. EventSubmitted carries none, because
	// no lane takes a job until it leaves the queue. Informational: replay
	// queues the job for whichever live lane is free rather than trusting
	// a recorded lane that may no longer exist after a topology change.
	Backend string `json:"backend,omitempty"`
	// Deadline is the lease expiry, set on EventLeased only.
	Deadline *time.Time `json:"deadline,omitempty"`
	// Trace is the job's W3C traceparent, set on EventSubmitted when the
	// job carries distributed trace context. Replay re-adopts it so a job
	// recovered after a crash keeps the TraceID its client is watching;
	// it also makes the journal greppable by trace ID.
	Trace string `json:"trace,omitempty"`
}

// Journal appends entries to the file. Safe for concurrent use.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// Open creates dir if needed and opens its journal file for appending.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append writes one entry and syncs it to disk. The single write keeps the
// line atomic with respect to concurrent appenders; the sync bounds what a
// crash can lose to entries not yet acknowledged.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadAll parses dir's journal. Lines that fail to parse — the torn tail a
// crash leaves behind, or any other corruption — are skipped and counted in
// skipped, never fatal. A missing file is an empty journal.
func ReadAll(dir string) (entries []Entry, skipped int, err error) {
	f, err := os.Open(filepath.Join(dir, FileName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil || e.Job == "" || e.Event == "" {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		// An over-long garbage line is corruption like any other: drop it.
		skipped++
	}
	return entries, skipped, nil
}

// PendingJob is a job the journal shows accepted but not finished.
type PendingJob struct {
	ID      string
	Seq     int64
	Request json.RawMessage
}

// Pending reduces a journal to the jobs that never reached a terminal
// event, in sequence order, plus the highest sequence number seen (0 when
// the journal is empty). A started-but-unfinished job is still pending:
// the process died under it, and determinism makes re-running it safe.
func Pending(entries []Entry) (pending []PendingJob, maxSeq int64) {
	open := map[string]PendingJob{}
	for _, e := range entries {
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		switch e.Event {
		case EventSubmitted:
			if len(e.Request) > 0 {
				open[e.Job] = PendingJob{ID: e.Job, Seq: e.Seq, Request: e.Request}
			}
		case EventDone, EventFailed, EventCanceled:
			delete(open, e.Job)
		}
	}
	for _, p := range open {
		pending = append(pending, p)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Seq < pending[j].Seq })
	return pending, maxSeq
}
