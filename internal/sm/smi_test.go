package sm

import (
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// smiTally counts where the management deliveries arriving at an HCA
// went: to a discoverer (filed as a late or duplicate response, since no
// request is pending), to the SMA (which answers, so the HCA sends), to
// either agent's parser as malformed or misrouted, to the LID-routed
// handler, or through to OnDeliver.
type smiTally struct {
	Disc, SMA, Malformed, LID, OnDeliver uint64
}

func (t smiTally) sum() uint64 { return t.Disc + t.SMA + t.Malformed + t.LID + t.OnDeliver }

func (t smiTally) minus(u smiTally) smiTally {
	return smiTally{t.Disc - u.Disc, t.SMA - u.SMA, t.Malformed - u.Malformed, t.LID - u.LID, t.OnDeliver - u.OnDeliver}
}

// smiRig is a two-node LID-routed line whose node 0 carries an SMA, two
// idle discoverers, a LID-routed handler that takes traps and HA
// heartbeats, and an OnDeliver, registered in the given order.
type smiRig struct {
	s         *sim.Simulator
	mesh      *topology.Mesh
	lidTook   uint64
	lidNode   int
	onDeliver uint64
}

func newSMIRig(t testing.TB, order []string) *smiRig {
	t.Helper()
	r := &smiRig{s: sim.New(), lidNode: -1}
	r.mesh = topology.NewMesh(r.s, fabric.DefaultParams(), 2, 1)
	hca := r.mesh.HCA(0)
	register := map[string]func(){
		"sma": func() { AttachNodeAgent(hca, discMKey) },
		"discs": func() {
			NewDiscoverer(r.s, hca, discMKey, 50*sim.Microsecond)
			NewDiscoverer(r.s, hca, discMKey, 50*sim.Microsecond)
		},
		"lid":       func() { SetLIDHandler(r.mesh.HCAs[:1], r) },
		"onDeliver": func() { hca.OnDeliver = func(*fabric.Delivery) { r.onDeliver++ } },
	}
	if len(order) != len(register) {
		t.Fatalf("registration order %v names %d of %d parts", order, len(order), len(register))
	}
	for _, part := range order {
		register[part]()
	}
	return r
}

// Dispatch is the rig's LID-routed handler: it takes traps and HA
// heartbeats.
func (r *smiRig) Dispatch(node int, d *fabric.Delivery) bool {
	_, trapErr := parseTrap(d.Pkt.Payload)
	_, hbErr := parseHeartbeat(d.Pkt.Payload)
	if trapErr != nil && hbErr != nil {
		return false
	}
	r.lidTook++
	r.lidNode = node
	return true
}

func (r *smiRig) tally() smiTally {
	c := r.mesh.HCA(0).Counters
	return smiTally{
		Disc:      c.Get("smp_late_responses") + c.Get("smp_dup_responses"),
		SMA:       c.Get("sent"),
		Malformed: c.Get("smp_malformed") + c.Get("smp_misrouted"),
		LID:       r.lidTook,
		OnDeliver: r.onDeliver,
	}
}

// deliver sends pl from node 1 to node 0 as a LID-routed MAD and returns
// where node 0 put it.
func (r *smiRig) deliver(t testing.TB, pl []byte) smiTally {
	t.Helper()
	hca := r.mesh.HCA(0)
	before, arrived := r.tally(), hca.Counters.Value(fabric.HCADelivered)
	r.mesh.HCA(1).Send(hca.Params().NewMAD(topology.LIDOf(1), topology.LIDOf(0), pl))
	r.s.Run()
	if n := hca.Counters.Value(fabric.HCADelivered) - arrived; n != 1 {
		t.Fatalf("%d deliveries arrived at node 0, want 1", n)
	}
	return r.tally().minus(before)
}

// TestMADDispatchOneConsumer sends each kind of management delivery to an
// HCA and checks it reaches exactly one consumer, the same one whatever
// order the consumers registered in.
func TestMADDispatchOneConsumer(t *testing.T) {
	request := newSMP(smpMethodGet, smpAttrNodeInfo, 9, discMKey, nil)
	response := newResponse(request[:])
	kinds := []struct {
		name string
		pl   []byte
		want smiTally
	}{
		{"DR response", response[:], smiTally{Disc: 1}},
		{"DR request", request[:], smiTally{SMA: 1}},
		{"trap", encodeTrap(trapMAD{Offender: 2, PKey: 0x8001}), smiTally{LID: 1}},
		{"HA heartbeat", appendHeartbeat(nil, heartbeatMAD{Master: 1, Seq: 3}), smiTally{LID: 1}},
		{"unknown", []byte{0x77, 1, 2, 3}, smiTally{OnDeliver: 1}},
	}
	for _, order := range [][]string{
		{"sma", "discs", "lid", "onDeliver"},
		{"onDeliver", "lid", "discs", "sma"},
		{"discs", "onDeliver", "sma", "lid"},
	} {
		for _, k := range kinds {
			r := newSMIRig(t, order)
			if got := r.deliver(t, k.pl); got != k.want {
				t.Errorf("order %v, %s: went to %+v, want %+v", order, k.name, got, k.want)
			}
			if k.want.LID == 1 && r.lidNode != 0 {
				t.Errorf("order %v, %s: LID handler told node %d, want 0", order, k.name, r.lidNode)
			}
		}
	}
}

// FuzzMADDispatch hands an HCA with an SMA, two discoverers and a
// LID-routed handler an arbitrary management payload: nothing panics and
// the delivery reaches exactly one consumer.
func FuzzMADDispatch(f *testing.F) {
	request := newSMP(smpMethodGet, smpAttrNodeInfo, 9, discMKey, nil)
	response := newResponse(request[:])
	set := newSMP(smpMethodSet, smpAttrSetLID, 10, discMKey, nil)
	misrouted := newSMP(smpMethodGet, smpAttrNodeInfo, 11, discMKey, []byte{topology.PortEast})
	f.Add(request[:])
	f.Add(response[:])
	f.Add(set[:])
	f.Add(misrouted[:])
	f.Add(request[:smpHeaderSize+1])
	f.Add(encodeTrap(trapMAD{Offender: 2, PKey: 0x8001}))
	f.Add(appendHeartbeat(nil, heartbeatMAD{Master: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, pl []byte) {
		if len(pl) > packet.MTU {
			return
		}
		r := newSMIRig(t, []string{"sma", "discs", "lid", "onDeliver"})
		if got := r.deliver(t, pl); got.sum() != 1 {
			t.Fatalf("payload %x went to %+v, want exactly one consumer", pl, got)
		}
	})
}
