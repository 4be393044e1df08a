package topology

// Hops returns the number of switches a packet from node a to node b
// traverses under dimension-ordered routing.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := a%m.W, a/m.W
	bx, by := b%m.W, b/m.W
	dx, dy := bx-ax, by-ay
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy + 1 // +1: the destination's own switch
}
