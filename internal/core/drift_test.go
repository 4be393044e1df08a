package core

import (
	"encoding/hex"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/policy"
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
	for _, periodUS := range []int64{400, 200, 100, 50} {
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

// TestPolicyDocumentWireBytes pins the bytes a run's policy document
// puts on the wire, with and without a pinned invalid key: they ride
// every HA state-sync MAD, so the delivered-wire pins and bench's
// digests hash them. The frozen fields of dropped features (a zero
// limited-member count per rule, switch -1 on the pin, zero
// alternate-source and switch-mode counts) are in the hex.
func TestPolicyDocumentWireBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enforcement = enforce.SIF
	groups := [][]int{{5, 0, 2}, {1, 4, 3}}
	const (
		rules = "4942504c000103000206706172742d3100010003000000000002000200050005000006706172742d32000200030001000100030003000400040000"
		plain = rules + "0000" + "00000000"
		pin   = rules + "0001ffff0fff" + "00000000"
	)
	if got := hex.EncodeToString(policy.Marshal(policyDocument(&cfg, groups))); got != plain {
		t.Errorf("document without a pin:\n got %s\nwant %s", got, plain)
	}
	cfg.Policy.PinInvalid = 0x0FFF
	if got := hex.EncodeToString(policy.Marshal(policyDocument(&cfg, groups))); got != pin {
		t.Errorf("document with a pin:\n got %s\nwant %s", got, pin)
	}
}
