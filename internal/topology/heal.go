package topology

import "ibasec/internal/packet"

// Failure-aware route recomputation. When the health plane fences a
// link, the mesh needs forwarding tables that route around it:
// RoutesAvoiding reads them off one search per live switch (route.go).
// The Subnet Manager's in-band reroute runs the same search over the
// graph it discovered.

// LinkID identifies one link of a mesh by the switch it hangs off and
// the switch's port (PortHCA for the switch-HCA link).
type LinkID struct {
	Switch int
	Port   int
}

// LinkPeer resolves the device on the far side of a switch port:
// isHCA=true with the node index for PortHCA, otherwise the neighbouring
// switch's index and the port on that switch facing back. ok is false
// when the port has no link (mesh boundary).
func (m *Mesh) LinkPeer(sw, port int) (isHCA bool, peer, peerPort int, ok bool) {
	if port == PortHCA {
		return true, sw, 0, true
	}
	peer, peerPort, ok = MeshNeighbor(m.W, m.H, sw, port)
	return false, peer, peerPort, ok
}

// EdgeHalf names one switch port by the switch's GUID.
type EdgeHalf struct {
	GUID uint64
	Port int
}

// EdgeSet is a port-labelled edge set in one map: the GUID of the node
// beyond each connected switch port.
type EdgeSet map[EdgeHalf]uint64

// Edges returns the mesh's healthy edge set — each switch's neighbour
// GUID per port, including the HCA on PortHCA — the "known good" view a
// re-sweeping Subnet Manager diffs dead fabrics against.
func (m *Mesh) Edges() EdgeSet {
	// One entry per HCA link, two per inter-switch link.
	e := make(EdgeSet, len(m.HCAs)+2*((m.W-1)*m.H+m.W*(m.H-1)))
	for i, sw := range m.Switches {
		for p := range sw.NumPorts() {
			isHCA, peer, _, ok := m.LinkPeer(i, p)
			switch {
			case !ok:
			case isHCA:
				e[EdgeHalf{sw.GUID(), p}] = m.HCAs[peer].GUID()
			default:
				e[EdgeHalf{sw.GUID(), p}] = m.Switches[peer].GUID()
			}
		}
	}
	return e
}

// RoutesAvoiding computes, for every live switch, a forwarding table
// (LID to egress port) of shortest paths through the mesh that avoid the
// given dead switches and dead links. A link is dead if either direction
// appears in deadLinks. LIDs are read from the HCAs' current
// assignments; unreachable or link-severed destinations are simply
// omitted (packets to them will count as unroutable rather than ride a
// stale route into a black hole).
func (m *Mesh) RoutesAvoiding(deadSwitches map[int]bool, deadLinks map[LinkID]bool) map[int]map[packet.LID]int {
	up := func(near, far LinkID) bool {
		return !deadSwitches[far.Switch] && !deadLinks[near] && !deadLinks[far]
	}
	routes := make(map[int]map[packet.LID]int, len(m.Switches))
	var t Tree
	for i := range m.Switches {
		if deadSwitches[i] {
			continue
		}
		t.SearchMesh(m.W, m.H, i, up)
		table := make(map[packet.LID]int, len(m.HCAs))
		for n, hca := range m.HCAs {
			// Destination n's attachment must be alive.
			lid := hca.LID()
			if deadSwitches[n] || deadLinks[LinkID{n, PortHCA}] || lid == 0 {
				continue
			}
			if n == i {
				table[lid] = PortHCA
			} else if p, ok := t.FirstHop(n); ok {
				table[lid] = p
			}
		}
		routes[i] = table
	}
	return routes
}

// Reprogram replaces every listed switch's routes with the given tables
// (as RoutesAvoiding returns), clearing entries for LIDs a table omits.
func (m *Mesh) Reprogram(routes map[int]map[packet.LID]int) {
	for idx, table := range routes {
		sw := m.Switches[idx]
		for n := range m.HCAs {
			lid := m.HCAs[n].LID()
			if port, ok := table[lid]; ok {
				sw.SetRoute(lid, port)
			} else {
				sw.ClearRoute(lid)
			}
		}
	}
}
