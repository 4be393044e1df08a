package runner

import (
	"context"
	"fmt"
	"time"
)

// Job is one unit of work: a single simulation point of one experiment.
// Experiment labels the progress line; Experiment, Key and Index name
// the point in the *JobError of a failure. A job's position in the
// slice handed to Run, not its Index, places its result.
type Job[T any] struct {
	// Experiment names the sweep this point belongs to ("fig5",
	// "scale", ...).
	Experiment string
	// Index is the point's position in the sweep's row order; it
	// attributes a failure and does not place the result.
	Index int
	// Key identifies the point within its experiment, e.g.
	// "load=0.4,mode=IF".
	Key string
	// Run computes the row. It must be safe to call from any goroutine
	// and must not depend on other jobs having run.
	Run func(ctx context.Context) (T, error)
}

// JobError reports one job's failure. The pool survives job errors; Run
// collects them and keeps going.
type JobError struct {
	Experiment string
	Key        string
	Index      int
	Err        error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("runner: %s[%s] failed: %v", e.Experiment, e.Key, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// WatchdogError reports that one job exceeded the pool's per-job
// wall-clock budget and was abandoned. It is always wrapped in a
// *JobError, which attributes the overrun to a specific (experiment,
// key) point.
type WatchdogError struct {
	// Limit is the configured watchdog budget.
	Limit time.Duration
	// Elapsed is how long the job had been running when abandoned.
	Elapsed time.Duration
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("runner: job exceeded watchdog budget %v (ran %v, abandoned)",
		e.Limit, e.Elapsed.Round(time.Millisecond))
}

// PanicError wraps a panic recovered from a job's Run function so that
// one panicking point cannot kill the worker pool.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job panicked: %v", e.Value)
}
