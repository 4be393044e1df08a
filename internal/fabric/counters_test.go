package fabric

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
		{"switch", func() error { return metrics.CheckTable(&switchCounters, numSwitchCounters) }},
		{"hca", func() error { return metrics.CheckTable(&hcaCounters, numHCACounters) }},
	} {
		if err := tc.check(); err != nil {
			t.Errorf("%s: %v", tc.set, err)
		}
	}
}
