// Package runner is the evaluation harness's worker pool. Each
// simulation point of a sweep (experiment × config) becomes a Job; Run
// executes jobs on a bounded pool, converts worker panics into job
// errors attributed to their point, abandons a point that outlives the
// watchdog, and reports live progress. A job is a seeded, deterministic
// simulation, so it runs once: a retry would only repeat its failure.
// Nothing is persisted: a run's rows are its return value.
//
// This is the only package that starts goroutines or takes locks. A
// simulation run owns everything it builds and is one goroutine; what
// the pool's workers share — its counters and progress line — is
// synchronised here.
//
// Result i is written to position i, the place of jobs[i], whichever
// worker ran it, so a sweep's row order — and therefore its CSV output —
// is byte-identical whether it runs on one worker or many.
//
// The package is stdlib-only and deliberately knows nothing about the
// simulator: internal/core's one sweep engine turns each sweep's points
// into jobs and the cmd/ibsim CLI supplies the pool configuration
// (-jobs, -watchdog).
package runner

import (
	"context"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ibasec/internal/metrics"
)

// Options configures a Pool.
type Options struct {
	// Workers is the number of concurrent jobs; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives live status lines
	// (completed/total, failures, ETA).
	Progress io.Writer
	// Watchdog, when positive, is the wall-clock budget for a single job.
	// A job that exceeds it is abandoned (its goroutine leaks —
	// simulation jobs have no preemption points) and fails with a
	// *WatchdogError naming the job, so one wedged point cannot hang a
	// whole sweep. Zero disables the watchdog.
	Watchdog time.Duration
}

// Pool executes jobs with bounded concurrency. A Pool may be shared
// across sequential Run calls (one per sweep); its counters accumulate
// over its lifetime.
type Pool struct {
	opts Options
	// mu serialises the workers' counter updates: the one Counters set
	// shared across goroutines.
	mu       sync.Mutex
	counters *metrics.Counters
}

// New returns a pool with the given options.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{opts: opts, counters: metrics.NewCounters("jobs_completed", "jobs_failed", "job_panics", "job_watchdog_aborts")}
}

// Counters returns the pool's lifetime counters: jobs_completed,
// jobs_failed, job_panics, job_watchdog_aborts. Read them between Run
// calls.
func (p *Pool) Counters() *metrics.Counters { return p.counters }

// inc counts one event on the pool's counters.
func (p *Pool) inc(name string) {
	p.mu.Lock()
	p.counters.Inc(name, 1)
	p.mu.Unlock()
}

// Run executes jobs and returns their results in the jobs' order:
// results[i] is jobs[i]'s, whatever its Index. A failing or panicking job never
// kills the pool: its error is collected while the remaining jobs
// proceed. The returned error joins every job failure plus the context
// error, if any; results of successful jobs are valid even when an
// error is returned.
//
// A nil pool runs the jobs serially with no progress — the behaviour of
// the historical serial harness.
func Run[T any](ctx context.Context, p *Pool, jobs []Job[T]) ([]T, error) {
	if p == nil {
		p = New(Options{Workers: 1})
	}
	results := make([]T, len(jobs))
	jobErrs := make([]error, len(jobs))

	label := ""
	if len(jobs) > 0 {
		label = jobs[0].Experiment
	}
	prog := newProgress(p.opts.Progress, label, len(jobs))

	workers := min(p.opts.Workers, len(jobs))
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				var err error
				results[i], err = executeJob(ctx, p, &jobs[i])
				jobErrs[i] = err
				prog.step(err != nil)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case ch <- i:
		case <-ctx.Done():
			// Mark every undispatched job (including this one) as
			// cancelled so callers see which points never ran.
			for j := i; j < len(jobs); j++ {
				jobErrs[j] = &JobError{
					Experiment: jobs[j].Experiment,
					Key:        jobs[j].Key,
					Index:      jobs[j].Index,
					Err:        ctx.Err(),
				}
			}
			break dispatch
		}
	}
	close(ch)
	wg.Wait()

	errs := make([]error, 0, len(jobErrs)+1)
	for _, err := range jobErrs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 && ctx.Err() != nil {
		errs = append(errs, ctx.Err())
	}
	return results, errors.Join(errs...)
}

// executeJob runs one job once, with panic recovery, and counts its
// outcome.
func executeJob[T any](ctx context.Context, p *Pool, job *Job[T]) (T, error) {
	var zero T
	v, err := runGuarded(ctx, p, job)
	if err == nil {
		p.inc("jobs_completed")
		return v, nil
	}
	if errors.As(err, new(*PanicError)) {
		p.inc("job_panics")
	}
	if errors.As(err, new(*WatchdogError)) {
		p.inc("job_watchdog_aborts")
	} else if ctx.Err() != nil {
		// Cancellation is not a job fault: it is not counted.
		return zero, &JobError{Experiment: job.Experiment, Key: job.Key,
			Index: job.Index, Err: ctx.Err()}
	}
	p.inc("jobs_failed")
	return zero, &JobError{Experiment: job.Experiment, Key: job.Key,
		Index: job.Index, Err: err}
}

// runGuarded runs the job under the pool's watchdog. With no watchdog
// the job runs on the worker goroutine directly; with one, it runs on
// its own goroutine and a job that outlives the budget is abandoned in
// favour of a *WatchdogError (the goroutine leaks by design — see
// Options.Watchdog).
func runGuarded[T any](ctx context.Context, p *Pool, job *Job[T]) (T, error) {
	if p.opts.Watchdog <= 0 {
		return runOnce(ctx, job)
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		v, err := runOnce(ctx, job)
		done <- outcome{v, err}
	}()
	timer := time.NewTimer(p.opts.Watchdog)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.v, o.err
	case <-timer.C:
		var zero T
		return zero, &WatchdogError{Limit: p.opts.Watchdog, Elapsed: time.Since(start)}
	}
}

// runOnce calls the job once, converting a panic into a *PanicError.
func runOnce[T any](ctx context.Context, job *Job[T]) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		return v, err
	}
	return job.Run(ctx)
}
