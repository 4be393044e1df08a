package topology

import "ibasec/internal/packet"

// Failure-aware route recomputation. When the health plane fences a
// link, the mesh needs forwarding tables that route around it:
// RoutesAvoiding reads them off one search per live switch (route.go), and
// ProgramAvoiding writes the same first hops into the switches.
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
	routes := make(map[int]map[packet.LID]int, len(m.Switches))
	m.routesAvoiding(deadSwitches, deadLinks, func(sw int, lid packet.LID, port int, ok bool) {
		table := routes[sw]
		if table == nil {
			table = make(map[packet.LID]int, len(m.HCAs))
			routes[sw] = table
		}
		if ok {
			table[lid] = port
		}
	})
	return routes
}

// ProgramAvoiding writes the routes RoutesAvoiding computes straight into
// the live switches, clearing the entry of each LID a table would omit,
// and returns the number of switches it wrote.
func (m *Mesh) ProgramAvoiding(deadSwitches map[int]bool, deadLinks map[LinkID]bool) int {
	return m.routesAvoiding(deadSwitches, deadLinks, func(sw int, lid packet.LID, port int, ok bool) {
		if ok {
			m.Switches[sw].SetRoute(lid, port)
		} else {
			m.Switches[sw].ClearRoute(lid)
		}
	})
}

// routesAvoiding runs one search per live switch and hands hop, switch by
// switch, each HCA's LID and the first hop toward it, ok false where the
// switch has no route to it. It returns the number of switches searched.
func (m *Mesh) routesAvoiding(deadSwitches map[int]bool, deadLinks map[LinkID]bool, hop func(sw int, lid packet.LID, port int, ok bool)) int {
	up := func(near, far LinkID) bool {
		return !deadSwitches[far.Switch] && !deadLinks[near] && !deadLinks[far]
	}
	live := 0
	var t Tree
	for i := range m.Switches {
		if deadSwitches[i] {
			continue
		}
		live++
		t.SearchMesh(m.W, m.H, i, up)
		for n, hca := range m.HCAs {
			// Destination n's attachment must be alive.
			lid := hca.LID()
			port, ok := PortHCA, n == i
			if !ok {
				port, ok = t.FirstHop(n)
			}
			hop(i, lid, port, ok && lid != 0 && !deadSwitches[n] && !deadLinks[LinkID{n, PortHCA}])
		}
	}
	return live
}
