package core

import (
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/sim"
)

// TestDriftTighterAuditShrinksBlast is the experiment's sanity anchor:
// with repair on, shortening the audit period must not worsen either
// detection latency or blast radius, and the unaudited baseline must be
// at least as damaged as every audited arm. The duration (2040 us,
// corruption at 510 us) is chosen so the first sweep strictly after the
// corruption lands at a different phase offset for each period —
// 400/200/100/50 us periods give ~290/90/90/40 us ideal latencies, a
// non-increasing sequence even before the MAD round-trip is added.
func TestDriftTighterAuditShrinksBlast(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 1
	base.Duration = 2040 * sim.Microsecond
	base.Warmup = 200 * sim.Microsecond

	baseline, err := runDriftPoint(base, driftPoint{Mode: enforce.IF})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Blast == 0 {
		t.Fatal("unaudited baseline shows no blast; the corruption scenario is broken")
	}

	prev := baseline
	prev.DetectUS = 1e18 // baseline never detects; any real latency beats it
	for _, periodUS := range []int{400, 200, 100, 50} {
		row, err := runDriftPoint(base, driftPoint{Mode: enforce.IF, PeriodUS: periodUS, Repair: true})
		if err != nil {
			t.Fatal(err)
		}
		if row.DriftEvents == 0 || row.DriftRepaired == 0 {
			t.Fatalf("period %dus: drift not detected/repaired: %+v", periodUS, row)
		}
		if row.DetectUS < 0 || row.DetectUS > prev.DetectUS {
			t.Errorf("period %dus: detection latency %.1fus worse than %.1fus at the looser period",
				periodUS, row.DetectUS, prev.DetectUS)
		}
		if row.Blast > prev.Blast {
			t.Errorf("period %dus: blast %d worse than %d at the looser period",
				periodUS, row.Blast, prev.Blast)
		}
		if row.Blast > baseline.Blast {
			t.Errorf("period %dus: blast %d exceeds unaudited baseline %d",
				periodUS, row.Blast, baseline.Blast)
		}
		prev = row
	}
}
