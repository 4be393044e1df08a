package attack

import (
	"hash"
	"hash/fnv"
	"testing"

	"ibasec/internal/core"
	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// deliveryHash folds the wire image of every packet an HCA accepts into
// one FNV-64a, in delivery order.
type deliveryHash struct {
	h hash.Hash64
	n int
}

func (w *deliveryHash) Observe(_ sim.Time, kind fabric.ObsKind, _ string, d *fabric.Delivery) {
	if kind == fabric.ObsDeliver {
		w.h.Write(d.Pkt.Wire())
		w.n++
	}
}

// hashDeliveries installs a deliveryHash on cl's fabric.
func hashDeliveries(cl *core.Cluster) *deliveryHash {
	w := &deliveryHash{h: fnv.New64a()}
	cl.Cfg.Params.Observer = w
	return w
}

// TestSameSeedSameBytes holds a QP-level run to its seed: node keys,
// envelopes, QP secrets and so every tag are drawn from the seeded
// stream, so two runs from one seed deliver the same bytes. It covers a
// QP-level core run, whose Q_Key exchanges carry envelopes and whose
// data packets carry tags under the secrets they deliver, and the Table 3
// R_Key world, whose RC connect carries one.
func TestSameSeedSameBytes(t *testing.T) {
	coreRun := func() (uint64, int) {
		cfg := core.DefaultConfig()
		cfg.MeshW, cfg.MeshH = 2, 2
		cfg.NumPartitions = 1
		cfg.Duration = 400 * sim.Microsecond
		cfg.Warmup = 100 * sim.Microsecond
		cfg.Seed = 5
		cfg.Auth = core.AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.QPLevel}
		cl, err := core.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := hashDeliveries(cl)
		if res := cl.Simulate(); res.KeyExchanges == 0 || res.AuthOK == 0 {
			t.Fatalf("the QP-level run made %d key exchanges and authenticated %d packets", res.KeyExchanges, res.AuthOK)
		}
		return w.h.Sum64(), w.n
	}
	rkeyWorld := func() (uint64, int) {
		cl := world(5, transport.QPLevel)
		w := hashDeliveries(cl)
		victim := cl.Endpoints[3].CreateRCQP(victimPKey)
		victim.AuthRequired = true
		peer := cl.Endpoints[0].CreateRCQP(victimPKey)
		peer.AuthRequired = true
		connected := false
		cl.Endpoints[0].ConnectRC(peer, topology.LIDOf(3), victim.N, func(err error) { connected = err == nil })
		cl.Sim.Run()
		if !connected {
			t.Fatal("the R_Key world's RC connect failed")
		}
		if err := cl.Endpoints[0].SendRC(peer, []byte("tagged under the pair secret"), fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
		cl.Sim.Run()
		return w.h.Sum64(), w.n
	}
	for _, c := range []struct {
		name string
		run  func() (uint64, int)
	}{{"qp-level core run", coreRun}, {"Table 3 R_Key world", rkeyWorld}} {
		h1, n1 := c.run()
		h2, n2 := c.run()
		if n1 == 0 {
			t.Fatalf("%s delivered nothing", c.name)
		}
		if h1 != h2 || n1 != n2 {
			t.Errorf("%s: one seed delivered %d packets hashing %016x, then %d hashing %016x", c.name, n1, h1, n2, h2)
		}
	}
}
