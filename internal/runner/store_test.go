package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	s, err := Open(path, "seed=1", false)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		Experiment: "fig5", Key: "load=0.4,mode=IF", Seed: 99,
		Status: StatusOK, Payload: json.RawMessage(`{"v":7}`),
	}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Experiment: "fig5", Key: "bad", Seed: 1,
		Status: StatusFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same label resumes: the ok record is served, the failed one is not.
	s2, err := Open(path, "seed=1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	raw, ok := s2.Lookup("fig5", "load=0.4,mode=IF", 99)
	if !ok || string(raw) != `{"v":7}` {
		t.Fatalf("lookup = %q, %v", raw, ok)
	}
	if _, ok := s2.Lookup("fig5", "bad", 1); ok {
		t.Fatal("failed record must not resume")
	}
	if s2.Completed() != 1 {
		t.Fatalf("completed = %d", s2.Completed())
	}
}

func TestStoreLabelMismatchStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	s, err := Open(path, "seed=1", false)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(Record{Experiment: "e", Key: "k", Seed: 1, Status: StatusOK,
		Payload: json.RawMessage(`1`)})
	s.Close()

	s2, err := Open(path, "seed=2", true) // different run config
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Lookup("e", "k", 1); ok {
		t.Fatal("resumed across run-config labels")
	}
}

func TestStoreSkipsTruncatedTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	s, err := Open(path, "L", false)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(Record{Experiment: "e", Key: "good", Seed: 1, Status: StatusOK,
		Payload: json.RawMessage(`1`)})
	s.Close()
	// Simulate a crash mid-append: a half-written record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"experiment":"e","key":"torn","se`)
	f.Close()

	s2, err := Open(path, "L", true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Lookup("e", "good", 1); !ok {
		t.Fatal("good record lost")
	}
	if s2.Completed() != 1 {
		t.Fatalf("completed = %d", s2.Completed())
	}
}

// Full resume integration: a second Run against the same store must
// serve every point from the manifest and execute nothing.
func TestRunResumesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	var executions atomic.Int64
	mkJobs := func() []Job[int] {
		jobs := make([]Job[int], 5)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Experiment: "resume", Index: i, Key: fmt.Sprintf("i=%d", i),
				Seed: DeriveSeed(7, "resume", fmt.Sprintf("i=%d", i)),
				Run: func(context.Context) (int, error) {
					executions.Add(1)
					return i * i, nil
				},
			}
		}
		return jobs
	}

	s, err := Open(path, "L", false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(),
		New(Options{Workers: 2, Store: s}), mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if executions.Load() != 5 {
		t.Fatalf("first run executed %d jobs", executions.Load())
	}

	s2, err := Open(path, "L", true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	p := New(Options{Workers: 2, Store: s2})
	second, err := Run(context.Background(), p, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 5 {
		t.Fatalf("resume re-executed: %d total executions", executions.Load())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("resumed results differ at %d: %d vs %d", i, first[i], second[i])
		}
	}
	if p.Counters().Get("jobs_resumed") != 5 {
		t.Fatalf("counters: %s", p.Counters())
	}
}

// A run interrupted partway leaves a manifest that resumes the finished
// points and re-runs only the rest.
func TestPartialRunThenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	mkJobs := func(interruptAt int64) []Job[int] {
		jobs := make([]Job[int], 8)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{
				Experiment: "partial", Index: i, Key: fmt.Sprintf("i=%d", i),
				Seed: int64(i),
				Run: func(context.Context) (int, error) {
					n := executed.Add(1)
					if interruptAt > 0 && n == interruptAt {
						cancel()
						time.Sleep(5 * time.Millisecond) // let cancel propagate
					}
					return i + 100, nil
				},
			}
		}
		return jobs
	}

	s, err := Open(path, "L", false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, New(Options{Workers: 1, Store: s}), mkJobs(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	s.Close()
	ranFirst := executed.Load()
	if ranFirst >= 8 {
		t.Fatal("interruption had no effect")
	}

	s2, err := Open(path, "L", true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := Run(context.Background(), New(Options{Workers: 1, Store: s2}), mkJobs(0))
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 8 {
		t.Fatalf("resume re-executed finished points: %d total executions (first pass %d)",
			executed.Load(), ranFirst)
	}
	for i, v := range got {
		if v != i+100 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}
