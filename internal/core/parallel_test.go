package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
)

// renderRows formats rows the way the CLI renders CSV cells, so equality
// here means the exported artifacts are byte-identical.
func renderRows[T any](rows []T) string {
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("%#v\n", r)
	}
	return s
}

// The tentpole invariant: a sweep run on a parallel pool produces rows
// byte-identical to the serial harness at the same seed — same values,
// same order.
func TestFig5ParallelMatchesSerial(t *testing.T) {
	base := quickCfg()
	base.AttackCycle = sim.Millisecond

	serial, err := Fig5(context.Background(), nil, nil2loads(), 0.05, base) // historical serial path (nil pool)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Workers: 4})
	parallel, err := Fig5(context.Background(), pool, nil2loads(), 0.05, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel rows diverge from serial:\nserial:\n%s\nparallel:\n%s",
			renderRows(serial), renderRows(parallel))
	}
	if renderRows(serial) != renderRows(parallel) {
		t.Fatal("rendered rows not byte-identical")
	}
}

func nil2loads() []float64 { return []float64{0.4, 0.6} }

func TestFig1ParallelMatchesSerial(t *testing.T) {
	base := quickCfg()
	base.BestEffortLoad = 0.65

	serial, err := Fig1(context.Background(), nil, fabric.ClassBestEffort, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Workers: 3})
	parallel, err := Fig1(context.Background(), pool, fabric.ClassBestEffort, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fig1 rows diverge:\n%s\nvs\n%s", renderRows(serial), renderRows(parallel))
	}
}

// ScaleSweep runs two simulations per job; it must still be
// order-stable and value-stable under parallelism.
func TestScaleSweepParallelMatchesSerial(t *testing.T) {
	base := quickCfg()
	base.BestEffortLoad = 0.5
	sizes := [][2]int{{2, 2}, {4, 4}}

	serial, err := ScaleSweep(context.Background(), nil, sizes, base)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(runner.Options{Workers: 2})
	parallel, err := ScaleSweep(context.Background(), pool, sizes, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("scale rows diverge:\n%s\nvs\n%s", renderRows(serial), renderRows(parallel))
	}
}
