package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// intJobs builds n jobs whose value is their index times ten.
func intJobs(n int, run func(i int) (int, error)) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Experiment: "test",
			Index:      i,
			Key:        fmt.Sprintf("i=%d", i),
			Run:        func(context.Context) (int, error) { return run(i) },
		}
	}
	return jobs
}

func TestRunPreservesOrder(t *testing.T) {
	// Later jobs finish first (decreasing sleep); results must still
	// land at their own index.
	jobs := intJobs(8, func(i int) (int, error) {
		time.Sleep(time.Duration(8-i) * time.Millisecond)
		return i * 10, nil
	})
	got, err := Run(context.Background(), New(Options{Workers: 4}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*10)
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var order []int
	jobs := intJobs(4, func(i int) (int, error) {
		order = append(order, i) // safe: serial execution, one goroutine
		return i, nil
	})
	if _, err := Run(context.Background(), nil, jobs); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order %v", order)
		}
	}
}

// Each panicking job runs once and is surfaced as its own job error,
// without killing the pool: every other job still completes. Eight
// workers update the pool's counters at once, so under -race this also
// shows Pool.inc covers every concurrent update.
func TestPanicsSurfacedOnce(t *testing.T) {
	const n, every = 64, 7
	var runs atomic.Int64
	jobs := intJobs(n, func(i int) (int, error) {
		runs.Add(1)
		if i%every == 0 {
			panic(fmt.Sprintf("boom at point %d", i))
		}
		return i * 10, nil
	})
	p := New(Options{Workers: 8})
	got, err := Run(context.Background(), p, jobs)
	if err == nil {
		t.Fatal("panicking jobs produced no error")
	}
	panics := (n + every - 1) / every
	if r := runs.Load(); r != n {
		t.Fatalf("%d runs for %d jobs: a job ran more than once", r, n)
	}
	errs := err.(interface{ Unwrap() []error }).Unwrap()
	if len(errs) != panics {
		t.Fatalf("%d job errors, want %d", len(errs), panics)
	}
	for _, e := range errs {
		var jerr *JobError
		if !errors.As(e, &jerr) || jerr.Index%every != 0 || jerr.Key != fmt.Sprintf("i=%d", jerr.Index) {
			t.Fatalf("wrong attribution: %v", e)
		}
		if !errors.As(e, new(*PanicError)) {
			t.Fatalf("panic not wrapped in *PanicError: %v", e)
		}
	}
	for i, v := range got {
		want := i * 10
		if i%every == 0 {
			want = 0 // failed job leaves the zero value
		}
		if v != want {
			t.Fatalf("pool died with the panic: results[%d] = %d, want %d", i, v, want)
		}
	}
	c := p.Counters()
	if c.Get("job_panics") != uint64(panics) || c.Get("jobs_failed") != uint64(panics) ||
		c.Get("jobs_completed") != uint64(n-panics) {
		t.Fatalf("counters: %s", c)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	jobs := intJobs(16, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	_, err := Run(ctx, New(Options{Workers: 2}), jobs)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry context.Canceled: %v", err)
	}
	if n := started.Load(); n >= 16 {
		t.Fatalf("cancellation did not stop dispatch: %d jobs started", n)
	}
}

func TestEmptyJobList(t *testing.T) {
	got, err := Run(context.Background(), New(Options{Workers: 4}), []Job[int]{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestWatchdogAbortsWedgedJob(t *testing.T) {
	wedge := make(chan struct{})
	defer close(wedge)
	jobs := intJobs(4, func(i int) (int, error) {
		if i == 2 {
			<-wedge // never closes during the run: the job is wedged
		}
		return i * 10, nil
	})
	p := New(Options{Workers: 2, Watchdog: 30 * time.Millisecond})
	got, err := Run(context.Background(), p, jobs)
	if err == nil {
		t.Fatal("wedged job not aborted")
	}
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("want WatchdogError, got %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Key != "i=2" {
		t.Fatalf("abort not attributed to the wedged point: %v", err)
	}
	// The healthy points still completed, in order.
	for i, want := range []int{0, 10, 0, 30} {
		if got[i] != want {
			t.Fatalf("results[%d] = %d, want %d", i, got[i], want)
		}
	}
	if n := p.Counters().Get("job_watchdog_aborts"); n != 1 {
		t.Fatalf("job_watchdog_aborts = %d, want 1", n)
	}
}

func TestWatchdogLeavesFastJobsAlone(t *testing.T) {
	jobs := intJobs(6, func(i int) (int, error) { return i * 10, nil })
	p := New(Options{Workers: 3, Watchdog: time.Second})
	got, err := Run(context.Background(), p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i*10 {
			t.Fatalf("results[%d] = %d", i, got[i])
		}
	}
	if n := p.Counters().Get("job_watchdog_aborts"); n != 0 {
		t.Fatalf("spurious aborts: %d", n)
	}
}
