package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/mac"
	"ibasec/internal/sim"
	"ibasec/internal/transport"
)

// wirePin fingerprints every packet an HCA accepted in one run: how many
// there were and an FNV-64a over each one's settled wire image, in
// delivery order.
type wirePin struct {
	Delivered uint64
	FNV64a    string
}

// wireHasher hashes the wire image of each delivery at ObsDeliver and
// passes every observation on to the observer it wraps. It reads the
// image only where the packet's journey ends, so it cannot change what a
// hop on the path sees. It also counts the CRC drops, which only a
// bit-error copy meets, and the delivered images whose VCRC does not
// verify, which no path may produce: an accepted copy is untainted.
type wireHasher struct {
	next              fabric.Observer
	h                 hash.Hash64
	n, drops, badVCRC uint64
}

func (w *wireHasher) Observe(at sim.Time, kind fabric.ObsKind, node string, d *fabric.Delivery) {
	switch kind {
	case fabric.ObsDeliver:
		img := d.Pkt.Wire()
		w.h.Write(img)
		w.n++
		if ok, err := icrc.VerifyVCRC(img); err != nil || !ok {
			w.badVCRC++
		}
	case fabric.ObsCRCDrop:
		w.drops++
	}
	if w.next != nil {
		w.next.Observe(at, kind, node, d)
	}
}

// deliveredWireOf builds cfg, runs it through simulate and fingerprints
// the wire bytes every HCA accepted; it also returns the run's results
// and the observer, whose counts say what else the run met.
func deliveredWireOf(t *testing.T, cfg Config, simulate func(*Cluster) *Results) (wirePin, *Results, *wireHasher) {
	t.Helper()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireHasher{next: cl.Cfg.Params.Observer, h: fnv.New64a()}
	cl.Cfg.Params.Observer = w
	res := simulate(cl)
	return wirePin{Delivered: w.n, FNV64a: fmt.Sprintf("%016x", w.h.Sum64())}, res, w
}

// secureDoSCfg is bench's secure-dos shape, shortened: SIF and UMAC-32
// partition-level tags under a duty-cycled four-attacker flood, so every
// legitimate packet carries a tag and owes only its VCRC.
func secureDoSCfg() Config {
	cfg := quickCfg()
	cfg.Enforcement = enforce.SIF
	cfg.Auth = AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.PartitionLevel}
	cfg.RealtimeLoad = 0.3
	cfg.BestEffortLoad = 0.3
	cfg.Attackers = 4
	cfg.AttackDuty = 0.5
	cfg.AttackCycle = cfg.Duration / 4
	cfg.AttackClass = fabric.ClassBestEffort
	return cfg
}

// TestDeliveredWireBytesPinned holds the wire image of every delivered
// packet to the bytes the commit before the seal was deferred produced
// (a packet's ICRC and VCRC are computed when its trailer is first read,
// DESIGN §8 "Seal on read"), and requires every delivered VCRC to
// verify. secure_dos is pinned to the bytes of HCA.Send's in-place LRH
// stamp (packet.Packet.Restamp): its realtime packets, sealed on VL 0
// and sent on another VL, once carried the VCRC of the unstamped header.
// The four partition-level runs cover the eager paths a deferred CRC has
// to match: every SM plane's transit DR-SMP edits, bit errors with link
// kills (tainted copies, whole-image reseals and RC retransmissions),
// tagged packets, and FECN marks. QP-level keys are drawn from the
// crypto RNG, so no QP-level run is pinned.
func TestDeliveredWireBytesPinned(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		simulate func(*Cluster) *Results
		// engaged says the run took the path it is here for.
		engaged func(res *Results, crcDrops uint64) bool
		want    wirePin
	}{
		{"all_planes", allPlanesCfg(), (*Cluster).Simulate,
			func(r *Results, _ uint64) bool { return r.AuditMADs > 0 && r.HealthSweepMADs > 0 },
			wirePin{Delivered: 6099, FNV64a: "9b361d0603b71cea"}},
		{"faults_rc", faultsRCCfg(), simulateFaultsRC(t),
			func(_ *Results, drops uint64) bool { return drops > 0 },
			wirePin{Delivered: 5182, FNV64a: "c881baff842fff67"}},
		{"secure_dos", secureDoSCfg(), (*Cluster).Simulate,
			func(r *Results, _ uint64) bool { return r.AuthOK > 0 && r.FilterDropped > 0 },
			wirePin{Delivered: 4241, FNV64a: "70ea2813ffc8bff9"}},
		{"congestion", congestionCfg(quickCfg(), congestionPoint{Mode: enforce.DPT, Rate: 1, CC: true}), (*Cluster).Simulate,
			func(r *Results, _ uint64) bool { return r.FECNMarked > 0 },
			wirePin{Delivered: 3785, FNV64a: "3cd350d2104dbabb"}},
	}
	for _, c := range cases {
		got, res, w := deliveredWireOf(t, c.cfg, c.simulate)
		if got.Delivered == 0 || !c.engaged(res, w.drops) {
			t.Errorf("%s: run did not engage its path (%d delivered, %d CRC drops)", c.name, got.Delivered, w.drops)
		}
		if w.badVCRC > 0 {
			t.Errorf("%s: %d of %d delivered images carry a VCRC that does not verify", c.name, w.badVCRC, got.Delivered)
		}
		if got != c.want {
			t.Errorf("%s: delivered wire bytes moved\n got  %+v\n want %+v", c.name, got, c.want)
		}
	}
}
