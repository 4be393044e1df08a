package core

import (
	"context"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// splitCfg returns one quick split-brain cell: 320us bisection, 10us
// heartbeat, 60us rotation — long enough that the east island elects a
// contained master and its fork completes a rollover before the heal.
func splitCfg() Config {
	cfg, err := splitBrainConfig(quickCfg(), splitBrainPoint{PartitionUS: 320, HeartbeatUS: 10, RekeyUS: 60})
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestSplitBrainMergeReconverges asserts the tentpole end-to-end: the
// bisection contains both sides, the standby island elects a contained
// master, the heal triggers exactly one abdication and merge with a
// sane timeline, and afterwards the fabric has a single master again.
// Auth health across the merge is the soft-landing property: stale
// island epochs drain as grace misses, never as an auth_fail storm.
func TestSplitBrainMergeReconverges(t *testing.T) {
	cfg := splitCfg()
	upAt := cfg.FaultPlan.Partitions[0].UpAt
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Simulate()

	for _, counter := range []sm.HACounter{sm.HAContainedTakeovers, sm.HAAbdications, sm.HAMerges} {
		if cl.HA.Counters.Value(counter) == 0 {
			t.Fatalf("HA counter %d = 0, want >= 1: %s", counter, &cl.HA.Counters)
		}
	}
	if masters := cl.HA.Masters(); len(masters) != 1 {
		t.Fatalf("masters after heal = %v, want exactly one", masters)
	} else if masters[0] != cl.HA.ActiveNode() {
		t.Fatalf("surviving master %d is not the active SM %d", masters[0], cl.HA.ActiveNode())
	}

	if len(cl.HA.Merges) == 0 {
		t.Fatal("no merge event recorded")
	}
	ev := cl.HA.Merges[0]
	if !(ev.ContainedAt < ev.HealedAt && ev.HealedAt <= ev.AbdicatedAt && ev.AbdicatedAt <= ev.MergedAt) {
		t.Fatalf("merge timeline out of order: contained=%v healed=%v abdicated=%v merged=%v",
			ev.ContainedAt, ev.HealedAt, ev.AbdicatedAt, ev.MergedAt)
	}
	if ev.HealedAt < upAt {
		t.Fatalf("rival discovered at %v, before the cut mended at %v", ev.HealedAt, upAt)
	}
	if ev.Winner == ev.Loser {
		t.Fatalf("merge winner and loser are both node %d", ev.Winner)
	}
	if ev.ReconcileMADs == 0 {
		t.Fatal("merge re-sweep spent no MADs")
	}

	// The loser island rotated its fork during the cut, so the merge had
	// two real lineages to reconcile; their straggler packets must drain
	// through the tombstone path, and the residual hard failures (the
	// heal -> reconcile window, before the merged epoch lands) must stay
	// below the soft-landing volume — a storm would dwarf it.
	graceMisses := epochCounters(cl, transport.EpAuthEpochExpired)
	if graceMisses == 0 {
		t.Fatal("merge drained no stale-epoch traffic as auth_epoch_expired")
	}
	if res.AuthFail > graceMisses {
		t.Fatalf("auth_fail %d exceeds grace misses %d: merge reconciliation stormed", res.AuthFail, graceMisses)
	}
	if res.AuthOK == 0 || res.DeliveredUD == 0 {
		t.Fatal("no authenticated traffic survived the run")
	}
}

// TestSplitBrainEpochReconciliation pins the key-plane half of the
// merge: every epoch the losing island minted is retired fabric-wide
// (never resurrected as current), and a packet sealed under the loser's
// epoch after the merge grace window closes is rejected as
// auth_epoch_expired — attributable stale-key traffic — not auth_fail.
func TestSplitBrainEpochReconciliation(t *testing.T) {
	cfg := splitCfg()
	upAt := cfg.FaultPlan.Partitions[0].UpAt
	nodes := cfg.MeshW * cfg.MeshH
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Capture the loser island's current epochs at the moment it steps
	// down: abdication runs before OnMerge swaps the fork out, so
	// m.Authority is still the island's diverged lineage. Simulate()
	// wires the cluster's own OnAbdicate when it arms resilience, so the
	// wrapper must chain in from inside the run, not before it.
	loser := map[packet.PKey]keys.EpochKey{}
	cl.Sim.Schedule(sim.Microsecond, func() {
		prevAb := cl.HA.OnAbdicate
		cl.HA.OnAbdicate = func(m *sm.SubnetManager) {
			if m.Authority != nil {
				for _, b := range m.PartitionBases() {
					pk := packet.PKey(0x8000 | b)
					if ek, ok := m.Authority.CurrentKey(pk); ok {
						loser[pk] = ek
					}
				}
			}
			if prevAb != nil {
				prevAb(m)
			}
		}
	})

	// Well after the merge grace window closed (merge completes ~46us
	// past the heal, grace 20us later) but before later rotations can
	// evict the merge tombstones from the bounded retired list.
	probeAt := upAt + 150*sim.Microsecond
	crafted := 0
	var expiredBefore, failBefore uint64
	var probeDst *transport.Endpoint

	cl.Sim.Schedule(probeAt, func() {
		if len(loser) == 0 {
			t.Error("no abdication observed — nothing to reconcile")
			return
		}
		// Fabric-wide store state first (the crafted send below perturbs
		// the sender's store): one merged lineage, loser epochs tombstoned.
		for pk, ek := range loser {
			for n, ep := range cl.Endpoints {
				if ep == nil {
					continue
				}
				cur, member := ep.Store.PartitionEpoch(pk)
				if !member {
					continue
				}
				if cur <= ek.Epoch {
					t.Errorf("node %d: current epoch %d for pk %#x not above loser epoch %d",
						n, cur, uint16(pk), ek.Epoch)
				}
				if k, _ := ep.Store.PartitionSecret(pk); *k == ek.Key {
					t.Errorf("node %d: loser key for pk %#x resurrected as current", n, uint16(pk))
				}
				tombstoned := false
				for _, r := range ep.Store.RetiredPartitionKeys(pk) {
					if r == ek {
						tombstoned = true
						break
					}
				}
				if !tombstoned {
					t.Errorf("node %d: loser epoch %d for pk %#x not tombstoned", n, ek.Epoch, uint16(pk))
				}
			}
		}

		// Craft one straggler sealed under the loser's epoch: pick the
		// first node pair (deterministic order) sharing a partition the
		// loser rotated, sign with the dead key, restore the sender.
		src, dst, pk, found := 0, 0, packet.PKey(0), false
		for a := 0; a < nodes && !found; a++ {
			for b := 0; b < nodes && !found; b++ {
				if p := cl.PairPKey(a, b); p != 0 {
					if _, dead := loser[p]; dead {
						src, dst, pk, found = a, b, p, true
					}
				}
			}
		}
		if !found {
			t.Error("no pair shares a loser-rotated partition")
			return
		}
		srcEp, dstEp := cl.Endpoints[src], cl.Endpoints[dst]
		rq := dstEp.CreateUDQP(pk, 0x5117)
		rq.AuthRequired = true
		rq.OnRecv = func([]byte, packet.LID, packet.QPN) { crafted++ }
		sq := srcEp.CreateUDQP(pk, 0)
		sq.AuthRequired = true

		live, _ := srcEp.Store.PartitionSecret(pk)
		savedKey := *live
		savedEpoch, _ := srcEp.Store.PartitionEpoch(pk)
		srcEp.Store.InstallPartitionSecret(pk, loser[pk].Key)
		expiredBefore = dstEp.Counters.Value(transport.EpAuthEpochExpired)
		failBefore = dstEp.Counters.Value(transport.EpAuthFail)
		probeDst = dstEp
		if err := srcEp.SendUD(sq, topology.LIDOf(dst), rq.N, rq.QKey,
			[]byte("stale island epoch"), fabric.ClassBestEffort); err != nil {
			t.Errorf("crafted send: %v", err)
		}
		// The packet was sealed at the SendUD call; put the live key back
		// before any background sender on this node needs it.
		srcEp.Store.InstallPartitionSecret(pk, savedKey)
		srcEp.Store.InstallPartitionEpoch(pk, savedEpoch, savedKey)
	})

	// Check the crafted packet's fate a safe margin after its ~2us
	// flight, inside the run so later background traffic cannot blur the
	// counter deltas.
	cl.Sim.Schedule(probeAt+20*sim.Microsecond, func() {
		if probeDst == nil {
			return // earlier callback already failed the test
		}
		if got := probeDst.Counters.Value(transport.EpAuthEpochExpired); got != expiredBefore+1 {
			t.Errorf("auth_epoch_expired went %d -> %d, want exactly one stale-epoch reject",
				expiredBefore, got)
		}
		if got := probeDst.Counters.Value(transport.EpAuthFail); got != failBefore {
			t.Errorf("auth_fail went %d -> %d: stale-epoch packet misread as forgery",
				failBefore, got)
		}
	})

	cl.Simulate()
	if crafted != 0 {
		t.Fatalf("packet sealed under a retired island epoch was delivered %d times", crafted)
	}
}

// TestSplitBrainDualMasterMonotonic: the dual-master window is the
// partition's price, so it must grow with partition duration — a longer
// cut means the loser island governs alone for longer before the heal
// exposes the rivalry — and so must the auth spike at the seam when
// rotation runs, because a longer cut gives the island lineages more
// time to diverge before the heal->reconcile window exposes them to
// each other. Every arm still reconverges to one merge.
func TestSplitBrainDualMasterMonotonic(t *testing.T) {
	rows, err := SplitBrainSweep(context.Background(), nil, []int64{80, 320}, []int64{10}, []int64{0, 60}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row.Merges == 0 {
			t.Fatalf("partition %vus rekey %vus never merged", row.PartitionUS, row.RekeyUS)
		}
		if row.ReconvergeUS <= 0 {
			t.Fatalf("partition %vus rekey %vus: reconverge %vus", row.PartitionUS, row.RekeyUS, row.ReconvergeUS)
		}
	}
	// Rows order: (80,0), (80,60), (320,0), (320,60).
	if rows[0].DualMasterUS < 0 || rows[2].DualMasterUS <= rows[0].DualMasterUS {
		t.Fatalf("dual-master window not monotone in partition length: %vus (80us cut) vs %vus (320us cut)",
			rows[0].DualMasterUS, rows[2].DualMasterUS)
	}
	if rows[3].AuthFail <= rows[1].AuthFail {
		t.Fatalf("auth spike at the seam not larger for the longer cut: %d (80us) vs %d (320us)",
			rows[1].AuthFail, rows[3].AuthFail)
	}
	// And without rotation the lineages never diverge: no spike at all.
	if rows[0].AuthFail != 0 || rows[2].AuthFail != 0 {
		t.Fatalf("auth failures with rotation disabled: %d/%d", rows[0].AuthFail, rows[2].AuthFail)
	}
}
