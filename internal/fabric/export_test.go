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
