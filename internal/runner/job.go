package runner

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"time"
)

// Job is one self-describing unit of work: a single simulation point of
// one experiment. The runner executes Run and files the returned row
// under (Experiment, Key, Seed) in the manifest, so a job must carry
// everything needed to recognise itself across process restarts.
type Job[T any] struct {
	// Experiment names the sweep this point belongs to ("fig5",
	// "scale", ...). It namespaces manifest entries so one manifest can
	// hold a whole `ibsim all` run.
	Experiment string
	// Index is the point's position in the sweep's row order. Results
	// are reassembled by Index, which is what keeps parallel output
	// byte-identical to the serial harness.
	Index int
	// Key identifies the point within its experiment, e.g.
	// "load=0.4,mode=IF". (Experiment, Key, Seed) is the resume key.
	Key string
	// Seed is the job's deterministic identity seed, normally
	// DeriveSeed(baseSeed, Experiment, Key). It fingerprints the job in
	// the manifest — runs at different base seeds never collide — and
	// is the seed replicated points should feed their simulations.
	Seed int64
	// Run computes the row. It must be safe to call from any goroutine
	// and must not depend on other jobs having run.
	Run func(ctx context.Context) (T, error)
}

// DeriveSeed deterministically derives a per-job seed from the base
// simulation seed, the experiment name, and the point key (FNV-1a over
// the three, with separators). The same triple always yields the same
// seed, and any change to one component changes it, so sweeps get
// stable, collision-resistant per-point seeds with no coordination.
func DeriveSeed(base int64, experiment, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	io.WriteString(h, experiment)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return int64(h.Sum64())
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
