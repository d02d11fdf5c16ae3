package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mthplace/internal/journal"
	"mthplace/internal/obs"
)

// TestReplayLogging: journal replay must be narrated through the
// configured logger — re-queued jobs, corrupt-line warnings, and
// validation failures of replayed requests.
func TestReplayLogging(t *testing.T) {
	// Forge a crash artifact: one replayable job, one job whose recorded
	// request no longer validates, and one corrupt line.
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(JobRequest{Testcase: "aes_300", Flows: []int{4}, Scale: 0.02})
	bad, _ := json.Marshal(JobRequest{Testcase: "no_such_testcase"})
	if err := j.Append(journal.Entry{Seq: 1, Job: "job-1", Event: journal.EventSubmitted, Request: good}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Entry{Seq: 2, Job: "job-2", Event: journal.EventSubmitted, Request: bad}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(filepath.Join(dir, journal.FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	var mu sync.Mutex
	lw := &lockedWriter{w: &buf, mu: &mu}
	s, err := New(Options{Workers: 1, QueueDepth: 4, JournalDir: dir,
		Logger: obs.NewCLILogger(lw, false, false)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		jb := s.Job("job-1")
		if jb == nil {
			t.Fatal("job-1 not replayed")
		}
		st, _ := jb.Snapshot()
		if st.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job stuck in %q", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jb := s.Job("job-2"); jb == nil {
		t.Error("invalid replayed job not registered")
	} else if st, _ := jb.Snapshot(); st != StateFailed {
		t.Errorf("invalid replayed job state %q, want failed", st)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		"skipped unparseable lines",
		"replaying unfinished jobs",
		"re-queued job", "job-1",
		"failed validation", "job-2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replay log missing %q:\n%s", want, out)
		}
	}
}

// lockedWriter serialises concurrent log writes into one buffer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
