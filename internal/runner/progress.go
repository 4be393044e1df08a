package runner

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progress tracks one Run call's completion state and periodically
// writes a human-readable status line (completed/total, failures, ETA)
// to the configured writer.
type progress struct {
	w     io.Writer
	label string
	total int

	mu        sync.Mutex
	start     time.Time
	done      int // completed by any means (ok or failed)
	failed    int
	lastPrint time.Time
}

// progressInterval throttles status lines so tight sweeps do not spam
// stderr; the final line is always printed.
const progressInterval = 500 * time.Millisecond

func newProgress(w io.Writer, label string, total int) *progress {
	return &progress{w: w, label: label, total: total, start: time.Now()}
}

// step records one finished job and prints a status line if due.
func (p *progress) step(failed bool) {
	if p == nil || p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if failed {
		p.failed++
	}
	now := time.Now()
	final := p.done == p.total
	if !final && now.Sub(p.lastPrint) < progressInterval {
		return
	}
	p.lastPrint = now
	elapsed := now.Sub(p.start)
	line := fmt.Sprintf("runner: %-12s %d/%d done", p.label, p.done, p.total)
	if p.failed > 0 {
		line += fmt.Sprintf(", %d failed", p.failed)
	}
	line += fmt.Sprintf(", elapsed %s", elapsed.Round(time.Millisecond))
	if !final {
		remaining := p.total - p.done
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(remaining))
		line += fmt.Sprintf(", eta %s", eta.Round(time.Millisecond))
	}
	fmt.Fprintln(p.w, line)
}
