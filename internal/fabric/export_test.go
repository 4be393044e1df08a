package fabric

// QueueDepth returns the packets waiting in the port's output queues
// summed over all VLs, plus one if the serializer is mid-transmission —
// the port's total unsent backlog.
func (sw *Switch) QueueDepth(port int) int {
	ch := sw.ports[port].out
	if ch == nil {
		return 0
	}
	n := 0
	for vl := 0; vl < NumVLs; vl++ {
		n += ch.qlen(uint8(vl))
	}
	ch.settle()
	if ch.busy {
		n++
	}
	return n
}

// FECNMarked returns the packets FECN-marked on one output port (zero
// for unconnected ports).
func (sw *Switch) FECNMarked(port int) uint64 {
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		return 0
	}
	return sw.ports[port].out.fecnMarked
}
