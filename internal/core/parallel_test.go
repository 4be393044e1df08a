package core

import (
	"context"
	"reflect"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/transport"
)

// TestParallelMatchesSerial: every sweep run on a multi-worker pool
// produces rows identical to the serial path (nil pool) at the same seed
// — same values, same order. Each sweep has at least two points at
// quickCfg size, so the workers really interleave and the -race run
// stays short.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	base := quickCfg()
	attackCycled := base
	attackCycled.AttackCycle = sim.Millisecond
	for _, tc := range []struct {
		name  string
		sweep func(*runner.Pool) (any, error)
	}{
		{"Fig1", func(p *runner.Pool) (any, error) {
			cfg := base
			cfg.BestEffortLoad = 0.65
			return Fig1(ctx, p, fabric.ClassBestEffort, 2, cfg)
		}},
		{"Fig5", func(p *runner.Pool) (any, error) {
			return Fig5(ctx, p, []float64{0.4, 0.6}, 0.05, attackCycled)
		}},
		{"Fig6", func(p *runner.Pool) (any, error) {
			return Fig6(ctx, p, []float64{0.4}, transport.QPLevel, base) // two points: without and with keys
		}},
		{"SweepDuty", func(p *runner.Pool) (any, error) {
			return SweepDuty(ctx, p, []float64{0.01, 0.25}, 0.4, attackCycled)
		}},
		{"AuthRateSweep", func(p *runner.Pool) (any, error) {
			return AuthRateSweep(ctx, p, map[string]float64{"HMAC-SHA1": 0.22, "UMAC": 4}, 0.5, base)
		}},
		{"SMFloodSweep", func(p *runner.Pool) (any, error) {
			return SMFloodSweep(ctx, p, []float64{0, 200e3}, base)
		}},
		// ScaleSweep runs two simulations per job.
		{"ScaleSweep", func(p *runner.Pool) (any, error) {
			cfg := base
			cfg.BestEffortLoad = 0.5
			return ScaleSweep(ctx, p, [][2]int{{2, 2}, {4, 4}}, cfg)
		}},
		// The robustness sweeps: their fixed axes (modes, arms, attack
		// shapes) give the points; the swept axes are one value where
		// that already makes two.
		{"FaultsSweep", func(p *runner.Pool) (any, error) {
			return FaultsSweep(ctx, p, []float64{1e-5}, []int{1}, base)
		}},
		{"FailoverSweep", func(p *runner.Pool) (any, error) {
			return FailoverSweep(ctx, p, []int{1, 2}, []int64{50}, []int64{300}, base)
		}},
		{"APMSweep", func(p *runner.Pool) (any, error) {
			return APMSweep(ctx, p, []float64{0}, []int{1}, base)
		}},
		{"DriftSweep", func(p *runner.Pool) (any, error) {
			return DriftSweep(ctx, p, []int64{50}, base)
		}},
		{"HealthSweep", func(p *runner.Pool) (any, error) {
			return HealthSweep(ctx, p, []float64{1e-4}, base)
		}},
		{"CongestionSweep", func(p *runner.Pool) (any, error) {
			return CongestionSweep(ctx, p, []float64{0.5}, base)
		}},
		{"SplitBrainSweep", func(p *runner.Pool) (any, error) {
			return SplitBrainSweep(ctx, p, []int64{80}, []int64{10}, []int64{0, 60}, base)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.sweep(nil)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := tc.sweep(runner.New(runner.Options{Workers: 3}))
			if err != nil {
				t.Fatal(err)
			}
			if n := reflect.ValueOf(serial).Len(); n < 2 {
				t.Fatalf("%d rows: the workers do not interleave", n)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("parallel rows diverge from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}
