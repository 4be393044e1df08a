package topology

// The routing rule, stated once. Every route, directed-route path and
// connectivity verdict comes from one breadth-first search over switch
// indices (Tree.Search): it visits switches first-in first-out and
// expands each switch's ports in ascending order, so each switch is
// reached along the lexicographically least shortest port sequence —
// equal-length ties go to the lowest port, matching the discovery
// sweep's ascending-port probe order. Static routing is dimension-order
// (DORPort): X then Y for a node's base LID, Y then X for its alternate.

// Tree is the search tree of one Search: each reached switch's parent,
// the egress port at the parent, the egress port at the root, and the
// order of the visits. A Tree's buffers are reused by its next Search.
type Tree struct {
	parent []int32 // parent index + 1, by switch; 0: unreached
	port   []int32 // egress port at the parent
	first  []int32 // egress port at the root
	order  []int32 // reached switches in visit order, root first
}

// Search rebuilds t as the search tree from root over n switches of
// ports ports each. peer reports the switch beyond a port, and false
// when the port leads to no live switch.
func (t *Tree) Search(n, ports, root int, peer func(sw, port int) (next int, ok bool)) {
	if cap(t.parent) < n {
		buf := make([]int32, 4*n)
		t.parent, t.port, t.first, t.order = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:3*n]
	}
	t.parent, t.port, t.first = t.parent[:n], t.port[:n], t.first[:n]
	clear(t.parent)
	t.parent[root] = int32(root) + 1
	t.order = append(t.order[:0], int32(root))
	for q := 0; q < len(t.order); q++ {
		cur := int(t.order[q])
		for p := 0; p < ports; p++ {
			next, ok := peer(cur, p)
			if !ok || t.parent[next] != 0 {
				continue
			}
			t.parent[next], t.port[next], t.first[next] = int32(cur)+1, int32(p), t.first[cur]
			if cur == root {
				t.first[next] = int32(p)
			}
			t.order = append(t.order, int32(next))
		}
	}
}

// SearchMesh is Search over the inter-switch links of a w×h mesh that up
// admits. up sees each link from the switch being expanded: near is
// that switch and its port, far the switch beyond and its port facing
// back.
func (t *Tree) SearchMesh(w, h, root int, up func(near, far LinkID) bool) {
	t.Search(w*h, PortNorth+1, root, func(sw, port int) (int, bool) {
		next, back, ok := MeshNeighbor(w, h, sw, port)
		return next, ok && up(LinkID{sw, port}, LinkID{next, back})
	})
}

// Reached returns the number of switches the search reached, its root
// included.
func (t *Tree) Reached() int { return len(t.order) }

// FirstHop returns the egress port at the root on the path to switch i,
// and false when i is the root or was not reached.
func (t *Tree) FirstHop(i int) (int, bool) {
	if t.parent[i] == 0 || int(t.order[0]) == i {
		return 0, false
	}
	return int(t.first[i]), true
}

// Paths returns, by switch, the path from the root — its egress ports,
// as a directed-route SMP carries them — nil when the switch was not
// reached and empty for the root. Every path is a capacity-capped window
// into one shared array.
func (t *Tree) Paths() [][]byte {
	depth := make([]int32, len(t.parent))
	total := 0
	for _, i := range t.order[1:] {
		depth[i] = depth[t.parent[i]-1] + 1
		total += int(depth[i])
	}
	arena := make([]byte, total)
	paths := make([][]byte, len(t.parent))
	off := 0
	for _, i := range t.order { // parents before children
		d := int(depth[i])
		path := arena[off : off+d : off+d]
		off += d
		if d > 0 {
			copy(path, paths[t.parent[i]-1])
			path[d-1] = byte(t.port[i])
		}
		paths[i] = path
	}
	return paths
}

// MeshNeighbor returns the switch beyond port of switch sw in a w×h mesh
// and the port on it facing back; ok is false for PortHCA and for a port
// on the mesh boundary.
func MeshNeighbor(w, h, sw, port int) (next, back int, ok bool) {
	x, y := sw%w, sw/w
	switch {
	case port == PortEast && x+1 < w:
		return sw + 1, PortWest, true
	case port == PortWest && x > 0:
		return sw - 1, PortEast, true
	case port == PortSouth && y+1 < h:
		return sw + w, PortNorth, true
	case port == PortNorth && y > 0:
		return sw - w, PortSouth, true
	}
	return 0, 0, false
}

// MeshLinks returns every inter-switch link of a w×h mesh once, named by
// its East or South half, in ascending switch order, East before South.
func MeshLinks(w, h int) []LinkID {
	var links []LinkID
	for sw := 0; sw < w*h; sw++ {
		for _, p := range [...]int{PortEast, PortSouth} {
			if _, _, ok := MeshNeighbor(w, h, sw, p); ok {
				links = append(links, LinkID{sw, p})
			}
		}
	}
	return links
}

// DORPort returns the egress port at the mesh switch at (sx, sy) toward
// the switch at (tx, ty) under dimension-order routing — X then Y, or Y
// then X when yFirst — and PortHCA when the two are one switch.
func DORPort(sx, sy, tx, ty int, yFirst bool) int {
	if yFirst && ty != sy {
		if ty > sy {
			return PortSouth
		}
		return PortNorth
	}
	switch {
	case tx > sx:
		return PortEast
	case tx < sx:
		return PortWest
	case ty > sy:
		return PortSouth
	case ty < sy:
		return PortNorth
	}
	return PortHCA
}
