package ibasec

import (
	"context"
	"testing"
	"time"
)

// The facade must expose a working end-to-end path: this is the package
// a downstream user imports.
func TestFacadeRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * Millisecond
	cfg.Warmup = 200 * Microsecond
	cfg.Attackers = 2
	cfg.Enforcement = SIF
	cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredLegit == 0 || res.PacketsSigned == 0 {
		t.Fatalf("delivered=%d signed=%d", res.DeliveredLegit, res.PacketsSigned)
	}
	if res.AuthFail != 0 {
		t.Fatalf("authFail=%d", res.AuthFail)
	}
	q, n := res.Combined()
	if q < 0 || n <= 0 {
		t.Fatalf("combined stats %v/%v", q, n)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if rows := Table2(4, 0.01, 2); len(rows) != 3 {
		t.Fatalf("Table2 rows = %d", len(rows))
	}
	if rows := Table4(64, 5*time.Millisecond, 2.0); len(rows) != 4 {
		t.Fatalf("Table4 rows = %d", len(rows))
	}
	rates := PaperTable4Rates()
	if len(rates) != 4 || rates["UMAC"] != 4.00 {
		t.Fatalf("paper rates = %v", rates)
	}
	for _, o := range AttackMatrix(11) {
		if o.SucceededAuth {
			t.Fatalf("%s: defence failed via facade", o.Key)
		}
	}
}

func TestFacadeAuthRateSweep(t *testing.T) {
	base := DefaultConfig()
	base.Duration = 2 * Millisecond
	base.Warmup = 200 * Microsecond
	rows, err := AuthRateSweep(context.Background(), nil, map[string]float64{"fast": 10, "slow": 0.3}, 0.5, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var fast, slow AuthRateRow
	for _, r := range rows {
		if r.Name == "fast" {
			fast = r
		} else {
			slow = r
		}
	}
	if slow.Bottleneck == false || fast.Bottleneck == true {
		t.Fatal("bottleneck flags wrong")
	}
	// A slower-than-link MAC engine must visibly throttle the node.
	if slow.QueuingUS < 5*fast.QueuingUS {
		t.Fatalf("slow engine queuing %.2f not >> fast %.2f", slow.QueuingUS, fast.QueuingUS)
	}
	if slow.Delivered >= fast.Delivered {
		t.Fatalf("slow engine delivered %d >= fast %d", slow.Delivered, fast.Delivered)
	}
}
