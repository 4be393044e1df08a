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
	return sw.ports[port].out.counts().fecnMarked
}

// credits returns each VL's credits: its lane's, or the full complement
// for a VL no push has carved a lane for.
func (c *outChannel) credits() [NumVLs]int32 {
	var cr [NumVLs]int32
	for vl := range cr {
		cr[vl] = int32(c.params.CreditsPerVL)
	}
	for q := c.lanes; q != nil; q = q.next {
		cr[q.vl] = q.credits
	}
	return cr
}

// setCredits gives vl's lane n credits, carving the lane if no push has,
// and keeps the starved mask.
func (c *outChannel) setCredits(vl uint8, n int32) {
	q := c.laneOf(vl)
	if q == nil {
		q = c.carve(vl)
	}
	q.credits = n
	c.starved &^= 1 << vl
	if n <= 0 {
		c.starved |= 1 << vl
	}
}
