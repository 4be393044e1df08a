package sm

import "ibasec/internal/fabric"

// LIDHandler takes the LID-routed management deliveries — HA MADs and
// traps — arriving at a mesh node: an HA Coordinator, or a lone
// SubnetManager serving every node. Dispatch reports whether it consumed
// the delivery.
type LIDHandler interface {
	Dispatch(node int, d *fabric.Delivery) bool
}

// dispatcher is an HCA's one management receive path (fabric.SMI), the
// MAD layer that owns QP0: agents register with it instead of wrapping
// the HCA's delivery callback, so what receives a MAD does not depend on
// the order things were attached in. Each management delivery goes to
// exactly one place:
//
//  1. a directed-route response to the newest Discoverer on the HCA;
//  2. a directed-route request to the subnet management agent;
//  3. anything else to the LID-routed handler;
//
// and what none of them takes falls through to the HCA's OnDeliver.
type dispatcher struct {
	disc *Discoverer // the newest registered
	sma  *NodeAgent
	lid  LIDHandler
	node int
}

// dispatcherOf returns hca's dispatcher, installing one on first use.
func dispatcherOf(hca *fabric.HCA) *dispatcher {
	if x, ok := hca.SMI().(*dispatcher); ok {
		return x
	}
	x := &dispatcher{}
	hca.SetSMI(x)
	return x
}

// SetLIDHandler routes the LID-routed management deliveries arriving at
// each of hcas to h, which is told the HCA's index in hcas as its node.
// The dispatchers it installs share one allocation.
func SetLIDHandler(hcas []*fabric.HCA, h LIDHandler) {
	xs := make([]dispatcher, len(hcas))
	for i, hca := range hcas {
		x, ok := hca.SMI().(*dispatcher)
		if !ok {
			x = &xs[i]
			hca.SetSMI(x)
		}
		x.lid, x.node = h, i
	}
}

// ReceiveMAD implements fabric.SMI.
func (x *dispatcher) ReceiveMAD(d *fabric.Delivery) bool {
	if isDRSMP(d) {
		switch d.Pkt.Payload[smpOffDir] {
		case 1:
			if x.disc != nil {
				// A response goes to the newest discoverer whatever its TID,
				// which files another plane's response as late or duplicate
				// (ROADMAP item 2, first composed-plane bug): kept as found.
				x.disc.receive(d)
				return true
			}
		case 0:
			if x.sma != nil {
				x.sma.receive(d)
				return true
			}
		}
	}
	return x.lid != nil && x.lid.Dispatch(x.node, d)
}
