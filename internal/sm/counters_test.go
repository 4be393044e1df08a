package sm

import (
	"testing"

	"ibasec/internal/metrics"
)

// TestCounterTables checks each of the package's counter declarations:
// every id named, names unique snake_case, and a by-name read equal to
// the typed read.
func TestCounterTables(t *testing.T) {
	for _, tc := range []struct {
		set   string
		check func() error
	}{
		{"sm", func() error { return metrics.CheckTable(&smCounters, numSMCounters) }},
		{"ha", func() error { return metrics.CheckTable(&haCounters, numHACounters) }},
		{"rotator", func() error { return metrics.CheckTable(&rotatorCounters, numRotatorCounters) }},
		{"resweep", func() error { return metrics.CheckTable(&resweepCounters, numResweepCounters) }},
		{"perfmgr", func() error { return metrics.CheckTable(&perfCounters, numPerfCounters) }},
		{"baseboard", func() error { return metrics.CheckTable(&boardCounters, numBoardCounters) }},
	} {
		if err := tc.check(); err != nil {
			t.Errorf("%s: %v", tc.set, err)
		}
	}
}
