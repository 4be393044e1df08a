package core

import (
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/faults"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/policy"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// rekeyCfg returns a partition-authenticated quick config with rotation
// every 500us (grace 125us) — four rollovers in the 2ms run.
func rekeyCfg() Config {
	cfg := quickCfg()
	cfg.Auth = AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.PartitionLevel}
	cfg.Rekey = RekeyParams{
		Period:            cfg.Duration / 4,
		DistributionDelay: 2 * sim.Microsecond,
	}
	return cfg
}

// epochCounters sums one per-endpoint counter across the cluster.
func epochCounters(cl *Cluster, id transport.EndpointCounter) uint64 {
	var n uint64
	for _, ep := range cl.Endpoints {
		if ep != nil {
			n += ep.Counters.Value(id)
		}
	}
	return n
}

// TestRekeyRolloversZeroRejects is the ISSUE's headline rotation
// property: with a grace window covering distribution latency, at least
// three whole-fabric rollovers complete with not a single
// authentication reject — in-flight epoch-e traffic is absorbed by the
// {e, e+1} acceptance window.
func TestRekeyRolloversZeroRejects(t *testing.T) {
	cfg := rekeyCfg()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Simulate()

	if n := cl.Rotator.Counters.Value(sm.RotEpochRollovers); n < 3 {
		t.Fatalf("only %d rollovers, want >= 3", n)
	}
	if res.AuthFail != 0 {
		t.Fatalf("%d auth failures across rollovers", res.AuthFail)
	}
	if n := epochCounters(cl, transport.EpAuthEpochExpired); n != 0 {
		t.Fatalf("%d grace-window misses with adequate grace", n)
	}
	// The grace window did real work: some packets were verified under
	// the previous epoch while their receiver had already rolled over.
	if n := epochCounters(cl, transport.EpAuthOKGrace); n == 0 {
		t.Fatal("no packet ever needed the grace window — rotation untested")
	}
	if res.AuthOK == 0 {
		t.Fatal("no authenticated traffic")
	}
}

// TestStaleEpochHolderRejectedAfterGrace models a node that misses a key
// distribution (its InstallSecret is dropped): its packets pass during
// the grace window and are rejected as epoch-expired — not as generic
// forgeries — once the old epoch retires.
func TestStaleEpochHolderRejectedAfterGrace(t *testing.T) {
	cfg := rekeyCfg()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const stale = 0
	orig := cl.SM.InstallSecret
	cl.SM.InstallSecret = func(node int, pk packet.PKey, k keys.SecretKey, epoch uint32) {
		if node == stale {
			return // distribution to this node silently lost
		}
		orig(node, pk, k, epoch)
	}
	cl.Simulate()

	if n := epochCounters(cl, transport.EpAuthEpochExpired); n == 0 {
		t.Fatal("stale-epoch packets never rejected as epoch-expired")
	}
	if n := epochCounters(cl, transport.EpAuthOKGrace); n == 0 {
		t.Fatal("stale-epoch packets never accepted during grace")
	}
}

// TestEvictionWipesAllSecrets is the revocation drill: evicting a node
// destroys its partition secret AND its QP-level send/recv secrets, so
// nothing it holds verifies anywhere afterwards.
func TestEvictionWipesAllSecrets(t *testing.T) {
	cfg := quickCfg()
	cfg.Auth = AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.QPLevel}
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Simulate()

	var pk packet.PKey
	var victim int
	for _, base := range cl.SM.PartitionBases() {
		if members := cl.SM.Members(packet.PKey(0x8000 | base)); len(members) > 1 {
			pk, victim = packet.PKey(0x8000|base), members[0]
			break
		}
	}
	store := cl.Endpoints[victim].Store
	if _, r, s := store.Counts(); r+s == 0 {
		t.Fatal("victim exchanged no QP secrets — nothing to revoke")
	}
	if err := cl.SM.RemoveFromPartition(cfg.SM.MKey, pk, victim); err != nil {
		t.Fatal(err)
	}
	p, r, s := store.Counts()
	if p != 0 || r != 0 || s != 0 {
		t.Fatalf("evicted node still holds secrets: partition=%d recv=%d send=%d", p, r, s)
	}
	if n := cl.SM.Counters.Value(sm.SMSecretsWiped); n != 1 {
		t.Fatalf("secrets_wiped = %d, want 1", n)
	}
}

// TestFailoverPointContinuity asserts the tentpole end-to-end: the
// master dies, exactly one standby takes over after a bounded re-sweep,
// and enforcement (SIF registrations) continues on the new master with
// zero permanent loss and zero spurious auth rejects.
func TestFailoverPointContinuity(t *testing.T) {
	base := quickCfg()
	row, err := runFailoverPoint(base, failoverPoint{Standbys: 2, HeartbeatUS: 50, RekeyUS: 300})
	if err != nil {
		t.Fatal(err)
	}
	if row.Takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", row.Takeovers)
	}
	if row.ElectionUS <= 0 || row.TakeoverUS < row.ElectionUS {
		t.Fatalf("election %.1fus, takeover %.1fus: not ordered", row.ElectionUS, row.TakeoverUS)
	}
	if row.MADsRecover == 0 {
		t.Fatal("takeover re-sweep spent no MADs")
	}
	if row.SIFRegsPre == 0 || row.SIFRegsPost == 0 {
		t.Fatalf("SIF registrations pre=%d post=%d: enforcement did not survive failover",
			row.SIFRegsPre, row.SIFRegsPost)
	}
	if row.AuthFail != 0 || row.GraceMisses != 0 {
		t.Fatalf("authFail=%d graceMisses=%d: rotation broke auth across failover",
			row.AuthFail, row.GraceMisses)
	}
	if row.Rollovers < 3 {
		t.Fatalf("rollovers = %d, want >= 3 across the failover", row.Rollovers)
	}
	if row.ForcedRotations != 1 {
		t.Fatalf("forced rotations = %d, want 1 (KeyCompromise response)", row.ForcedRotations)
	}
}

// TestFailoverNoStandbyBaseline: with no standbys the kill is permanent —
// no takeover, no post-kill registrations, traps lost to the dead SM,
// and no compromise response.
func TestFailoverNoStandbyBaseline(t *testing.T) {
	base := quickCfg()
	row, err := runFailoverPoint(base, failoverPoint{HeartbeatUS: 50, RekeyUS: 300})
	if err != nil {
		t.Fatal(err)
	}
	if row.Takeovers != 0 || row.SIFRegsPost != 0 {
		t.Fatalf("takeovers=%d regsPost=%d with zero standbys", row.Takeovers, row.SIFRegsPost)
	}
	if row.MADsLostDeadSM == 0 {
		t.Fatal("no management traffic lost to the dead SM")
	}
	if row.ForcedRotations != 0 {
		t.Fatal("dead management plane responded to the compromise")
	}
}

// TestFailoverSweepDeterministic: the full sweep is a pure function of
// its inputs.
func TestFailoverSweepDeterministic(t *testing.T) {
	base := quickCfg()
	a, err := FailoverSweep(context.Background(), nil, []int{0, 1}, []int64{50}, []int64{0, 300}, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FailoverSweep(context.Background(), nil, []int{0, 1}, []int64{50}, []int64{0, 300}, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same sweep, different rows:\n%+v\n%+v", a, b)
	}
}

// TestForgedStateSyncRejected is the paper's threat model on the
// management VL: a compromised node sends a standby one well-formed
// state-sync MAD in the window between the master's death and the
// takeover, when no genuine sync can overwrite it. A member beyond the
// mesh, adopted, reaches the promoted master's first key rollover and
// indexes past the endpoint table; bases out of ascending order, or one
// base twice, break the order the promoted master's partition table is
// searched in. The standby must refuse the whole MAD — membership and
// lease alike — and take over with the state the dead master last synced.
func TestForgedStateSyncRejected(t *testing.T) {
	// type 3 (state sync), master, digest, partition count, then every
	// partition as base, epoch, member count, members.
	for _, tc := range []struct {
		name   string
		forged []byte
	}{
		{"member beyond the mesh", []byte{3, 0, 0, 0, 0, 0, 0, 0, 1, // base 1: node 9999 of a 16-node mesh
			0, 1, 0, 0, 0, 0, 0, 1, 0x27, 0x0F}},
		{"bases out of order", []byte{3, 0, 0, 0, 0, 0, 0, 0, 2, // base 2: node 1; base 1: node 2
			0, 2, 0, 0, 0, 0, 0, 1, 0, 1,
			0, 1, 0, 0, 0, 0, 0, 1, 0, 2}},
		{"repeated base", []byte{3, 0, 0, 0, 0, 0, 0, 0, 2, // base 1: node 1; base 1: node 2
			0, 1, 0, 0, 0, 0, 0, 1, 0, 1,
			0, 1, 0, 0, 0, 0, 0, 1, 0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := rekeyCfg()
			cfg.Rekey.Period = 300 * sim.Microsecond
			cfg.HA = HAParams{Standbys: 1, Heartbeat: 50 * sim.Microsecond}
			killAt := sim.Millisecond
			cfg.FaultPlan = &faults.Plan{Seed: cfg.Seed, SMKills: []faults.SMKill{{At: killAt}}}
			cl, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			standby := cl.Standbys[0]
			const compromised = 5
			if compromised == cfg.SM.Node || compromised == standby.Node() {
				t.Fatalf("node %d is part of the SM ensemble", compromised)
			}
			cl.Sim.ScheduleAt(killAt+20*sim.Microsecond, func() {
				hca := cl.Mesh.HCA(compromised)
				d := hca.Params().NewMAD(hca.LID(), topology.LIDOf(standby.Node()), tc.forged)
				d.Attack = true
				hca.Send(d)
			})
			res := cl.Simulate()

			if n := cl.HA.Counters.Value(sm.HASyncsRejected); n < 1 {
				t.Fatalf("syncs_rejected = %d: the forged sync never arrived or was adopted", n)
			}
			if n := cl.HA.Counters.Value(sm.HATakeovers); n != 1 || cl.HA.Active() != standby {
				t.Fatalf("takeovers = %d, active on node %d: the standby did not take over", n, cl.HA.ActiveNode())
			}
			// The lease runs from the last genuine beat, which the kill
			// precedes; refreshed by the forged MAD it would expire a lease
			// after that one.
			if lease, ev := 3*cfg.HA.Heartbeat, cl.HA.Events[0]; ev.DetectedAt >= killAt+lease {
				t.Fatalf("lease expired at %v, kill at %v + lease %v: the forged sync refreshed it", ev.DetectedAt, killAt, lease)
			}
			if res.AuthFail != 0 {
				t.Fatalf("%d auth failures", res.AuthFail)
			}
			if got, want := partitionsOf(standby), partitionsOf(cl.SM); !reflect.DeepEqual(got, want) {
				t.Fatalf("promoted master's partitions differ from the killed master's:\n got %v\nwant %v", got, want)
			}
			if n := cl.Rotator.Counters.Value(sm.RotEpochRollovers); n < 4 {
				t.Fatalf("only %d rollovers: none ran under the promoted master", n)
			}
		})
	}
}

// partitionsOf lists m's partitions in ascending base order, each as its
// base followed by its members.
func partitionsOf(m *sm.SubnetManager) [][]int {
	var out [][]int
	for _, base := range m.PartitionBases() {
		out = append(out, append([]int{int(base)}, m.Members(packet.PKey(0x8000|base))...))
	}
	return out
}

// TestForgedTrailerRefused sends a standby, in the window between the
// master's death and the takeover, one state-sync MAD that replays the
// genuine membership and carries one hostile per-plane trailer. A blob
// its plane's parser refuses is hostile input: the promoted master drops
// it, counts sync_state_rejected and starts the plane without inherited
// state — with the plane configured off as well as on. A trailer under a
// magic no plane owns is filed where nothing reads it, and displaces no
// genuine state. Each case used to panic the run by name at takeover.
func TestForgedTrailerRefused(t *testing.T) {
	for _, tc := range []struct {
		name     string
		trailer  string
		enable   func(*Config)
		rejected bool
		check    func(t *testing.T, cl *Cluster)
	}{
		{
			name: "bad-length IBCC, congestion control off", trailer: "IBCC\x01\x02", rejected: true,
		},
		{
			name: "bad-length IBHQ, health plane on", trailer: "IBHQ\x01\x02", rejected: true,
			enable: func(cfg *Config) { cfg.Health = HealthParams{SweepPeriod: 40 * sim.Microsecond} },
			check: func(t *testing.T, cl *Cluster) {
				if len(cl.perfMgrs) != 2 || cl.PerfMgr.Counters.Value(sm.PMSweeps) == 0 {
					t.Errorf("%d PerfMgrs, the last swept %d times: the health plane did not restart clean",
						len(cl.perfMgrs), cl.PerfMgr.Counters.Value(sm.PMSweeps))
				}
			},
		},
		{
			name: "unknown magic, auditor on", trailer: "IBZZ\x01\x02",
			enable: func(cfg *Config) {
				cfg.Enforcement = enforce.SIF
				cfg.Policy = PolicyParams{Enabled: true, AuditPeriod: 100 * sim.Microsecond}
			},
			check: func(t *testing.T, cl *Cluster) {
				if len(cl.auditors) != 2 || cl.Auditor.Counters.Value(policy.AuditSweeps) == 0 {
					t.Errorf("%d auditors, the last swept %d times: the genuine policy state was displaced",
						len(cl.auditors), cl.Auditor.Counters.Value(policy.AuditSweeps))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := rekeyCfg()
			cfg.HA = HAParams{Standbys: 1, Heartbeat: 50 * sim.Microsecond}
			killAt := sim.Millisecond
			cfg.FaultPlan = &faults.Plan{Seed: cfg.Seed, SMKills: []faults.SMKill{{At: killAt}}}
			if tc.enable != nil {
				tc.enable(&cfg)
			}
			cl, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			standby := cl.Standbys[0]
			// type 3 (state sync), master, digest, then every partition as
			// base, epoch, member count, members; then the trailer.
			forged := []byte{3, 0, 0, 0, 0, 0, 0}
			bases := cl.SM.PartitionBases()
			forged = binary.BigEndian.AppendUint16(forged, uint16(len(bases)))
			for _, base := range bases {
				members := cl.SM.Members(packet.PKey(0x8000 | base))
				forged = binary.BigEndian.AppendUint16(forged, base)
				forged = binary.BigEndian.AppendUint32(forged, 0)
				forged = binary.BigEndian.AppendUint16(forged, uint16(len(members)))
				for _, m := range members {
					forged = binary.BigEndian.AppendUint16(forged, uint16(m))
				}
			}
			forged = binary.BigEndian.AppendUint32(forged, uint32(len(tc.trailer)))
			forged = append(forged, tc.trailer...)
			cl.Sim.ScheduleAt(killAt+20*sim.Microsecond, func() {
				hca := cl.Mesh.HCA(5) // neither the master's node nor the standby's
				d := hca.Params().NewMAD(hca.LID(), topology.LIDOf(standby.Node()), forged)
				d.Attack = true
				hca.Send(d)
			})
			res := cl.Simulate()

			if n := cl.HA.Counters.Value(sm.HATakeovers); n != 1 || cl.HA.Active() != standby {
				t.Fatalf("takeovers = %d, active on node %d: the standby did not take over", n, cl.HA.ActiveNode())
			}
			// A refused blob is counted and dropped; one nothing reads
			// stays filed, which also shows the forged MAD arrived.
			n, filed := cl.HA.Counters.Value(sm.HASyncStateRejected), standby.SyncState(tc.trailer[:4]) != nil
			if (n >= 1) != tc.rejected || filed == tc.rejected {
				t.Errorf("sync_state_rejected = %d, still filed = %v; want rejected = %v", n, filed, tc.rejected)
			}
			if n := standby.Counters.Value(sm.SMCCProgramMADs); n != 0 {
				t.Errorf("the promoted master programmed congestion control (%d MADs) in a run with it off", n)
			}
			if res.AuthFail != 0 {
				t.Errorf("%d auth failures", res.AuthFail)
			}
			if tc.check != nil {
				tc.check(t, cl)
			}
		})
	}
}
