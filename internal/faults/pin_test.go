package faults

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// TestChaosDrawsPinned pins every plan Chaos draws for seeds 1–64 and
// kills 0–8 on three meshes, by a hash of the drawn links and their
// windows (or of the error). Chaos redraws while a kill set disconnects
// the mesh, so a connectivity predicate that differs from the recorded
// one anywhere moves a plan, also at kill counts the faults experiment
// never reaches.
func TestChaosDrawsPinned(t *testing.T) {
	want := map[string]string{
		"4x4": "e70849946014396ed18f3dda52987c846e041786d911e127dc22a85a996ecc08",
		"3x5": "8c1b1f58c720cc3a5f391ae45d3f4a8f7e4916a27625a04e49ea8ffe3ccb4730",
		"8x8": "68f39d0556f1d1bfcf2ad535f1b885b62e33235a9eb8e627289c127cf4318df0",
	}
	for _, g := range []struct{ w, h int }{{4, 4}, {3, 5}, {8, 8}} {
		sum := sha256.New()
		for seed := int64(1); seed <= 64; seed++ {
			for kills := 0; kills <= 8; kills++ {
				p, err := Chaos(seed, g.w, g.h, kills, 100*sim.Microsecond, 2*sim.Millisecond)
				if err != nil {
					fmt.Fprintf(sum, "%d/%d: %v\n", seed, kills, err)
					continue
				}
				fmt.Fprintf(sum, "%d/%d: %v\n", seed, kills, p.Links)
			}
		}
		name := fmt.Sprintf("%dx%d", g.w, g.h)
		if got := fmt.Sprintf("%x", sum.Sum(nil)); got != want[name] {
			t.Errorf("%s: Chaos draws hash %s, recorded %s", name, got, want[name])
		}
	}
}

// TestPartitionVerdictsPinned pins Partition.Validate's verdict on every
// column bisection of three meshes, on L-shaped islands, and on every
// island of a 3×3 and a 2×4 mesh, by a hash of the verdicts.
func TestPartitionVerdictsPinned(t *testing.T) {
	const want = "2008b206513e77d14d5312a5f6e0f875352ef21e92d470a31fd382aa747c5b76"
	sum := sha256.New()
	validate := func(w, h int, island []int) {
		m := topology.NewBlankMesh(sim.New(), fabric.DefaultParams(), w, h)
		p := &Plan{Partitions: []Partition{{IslandA: island}}}
		fmt.Fprintf(sum, "%dx%d %v: %v\n", w, h, island, p.Validate(m))
	}
	for _, g := range []struct{ w, h int }{{4, 4}, {3, 5}, {8, 8}} {
		for col := 0; col <= g.w; col++ {
			validate(g.w, g.h, Bisect(g.w, g.h, col).IslandA)
		}
	}
	// L-shapes on 4×4: a column plus a row, both arms from one corner,
	// and the same arms cut apart at the corner.
	for _, island := range [][]int{
		{0, 4, 8, 12, 13, 14},
		{3, 7, 11, 15, 14, 13},
		{0, 1, 2, 3, 7, 11},
		{0, 4, 8, 9, 10, 6, 2},
		{4, 8, 12, 13, 14},
		{0, 4, 8, 13, 14},
	} {
		validate(4, 4, island)
	}
	every := func(w, h int) {
		n := w * h
		for mask := 0; mask < 1<<n; mask++ {
			var island []int
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					island = append(island, i)
				}
			}
			validate(w, h, island)
		}
	}
	every(3, 3)
	every(2, 4)
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != want {
		t.Errorf("Partition.Validate verdicts hash %s, recorded %s", got, want)
	}
}
