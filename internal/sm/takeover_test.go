package sm

import (
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/sim"
)

// TestWarmTakeoverAllocs holds a takeover on the 4×4 mesh — mastership
// moving between two live standbys, through the election sweep to the
// finished promotion — to a small allocation count once the election
// records, the discoverer's MADs and the heartbeat timers have been made
// once. What is left is the sweep's own discoverer and its state and the
// new master's heartbeat timer; re-attaching traps to all 16 HCAs
// allocates nothing (AttachTraps hands every HCA the same handler).
func TestWarmTakeoverAllocs(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	r := newRig(t, enforce.NoFiltering)
	var standbys []*SubnetManager
	for _, node := range []int{15, 14} {
		cfg := DefaultConfig()
		cfg.Node = node
		standbys = append(standbys, NewStandby(r.s, r.mesh, nil, cfg))
	}
	c, err := NewCoordinator(r.s, r.mesh, HAConfig{Standbys: 2, Heartbeat: 50 * sim.Microsecond}, DefaultConfig().MKey, r.m, standbys)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.sms {
		node := m.Node()
		r.mesh.HCA(node).OnDeliver = func(d *fabric.Delivery) { c.Dispatch(node, d) }
	}
	next := 1
	takeover := func() {
		before := c.Counters.Value(HATakeovers)
		c.takeover(next)
		r.s.RunUntil(r.s.Now() + 200*sim.Microsecond)
		if c.active != next || c.Counters.Value(HATakeovers) != before+1 || len(c.freeElections) == 0 {
			t.Fatalf("takeover by entry %d did not finish (active %d)", next, c.active)
		}
		next = 3 - next
	}
	takeover()
	takeover()
	if got := len(c.Events); got != 2 {
		t.Fatalf("%d takeover events, want 2", got)
	}
	for i, hca := range r.mesh.HCAs {
		if hca.OnPKeyViolation == nil {
			t.Fatalf("HCA %d has no trap handler after the takeovers", i)
		}
	}
	const ceiling = 12
	if n := testing.AllocsPerRun(20, takeover); n > ceiling {
		t.Errorf("a warm takeover allocated %.0f times, want ≤ %d", n, ceiling)
	}
}
