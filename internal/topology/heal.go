package topology

import (
	"sort"

	"ibasec/internal/packet"
)

// Failure-aware route recomputation. When fault injection kills a link or
// a switch, the Subnet Manager's re-sweep discovers the surviving graph
// and needs fresh forwarding tables that route around the damage. The
// BFS next-hop computation lives here so both the in-band healing path
// (sm.Discoverer re-programming from a discovered graph) and the
// out-of-band reference path (tests and the demo reprogramming a Mesh
// directly) share one deterministic implementation.

// SwitchGraph is a port-labelled adjacency over node GUIDs: for each
// node, the neighbour reached through each connected egress port.
type SwitchGraph map[uint64]map[int]uint64

// NextHops returns, for every source node in g, the egress port at the
// source on a shortest path to every other reachable node. Ties are
// broken deterministically: BFS expands neighbours in ascending port
// order, so the lowest-numbered port of an equal-length path wins.
func NextHops(g SwitchGraph) map[uint64]map[uint64]int {
	srcs := make([]uint64, 0, len(g))
	for guid := range g {
		srcs = append(srcs, guid)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })

	// Pre-sort each node's ports once.
	ports := make(map[uint64][]int, len(g))
	for guid, edges := range g {
		ps := make([]int, 0, len(edges))
		for p := range edges {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		ports[guid] = ps
	}

	next := make(map[uint64]map[uint64]int, len(g))
	for _, src := range srcs {
		next[src] = make(map[uint64]int)
		visited := map[uint64]bool{src: true}
		type qe struct {
			guid      uint64
			firstPort int
		}
		var queue []qe
		for _, p := range ports[src] {
			nbr := g[src][p]
			if _, inGraph := g[nbr]; !inGraph || visited[nbr] {
				continue
			}
			visited[nbr] = true
			next[src][nbr] = p
			queue = append(queue, qe{nbr, p})
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range ports[cur.guid] {
				nbr := g[cur.guid][p]
				if _, inGraph := g[nbr]; !inGraph || visited[nbr] {
					continue
				}
				visited[nbr] = true
				next[src][nbr] = cur.firstPort
				queue = append(queue, qe{nbr, cur.firstPort})
			}
		}
	}
	return next
}

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
	x, y := sw%m.W, sw/m.W
	switch port {
	case PortHCA:
		return true, sw, 0, true
	case PortEast:
		if x+1 < m.W {
			return false, sw + 1, PortWest, true
		}
	case PortWest:
		if x > 0 {
			return false, sw - 1, PortEast, true
		}
	case PortSouth:
		if y+1 < m.H {
			return false, sw + m.W, PortNorth, true
		}
	case PortNorth:
		if y > 0 {
			return false, sw - m.W, PortSouth, true
		}
	}
	return false, 0, 0, false
}

// SwitchEdges is one switch's row of an edge set: its GUID and, by
// port, the GUID of the node on each port's other end (0: no link).
type SwitchEdges struct {
	GUID  uint64
	Peers []uint64
}

// EdgeGUIDs returns the mesh's healthy port-labelled edge set, indexed
// by switch — each switch's neighbour GUID per port, including the HCA
// on PortHCA — the "known good" view a re-sweeping Subnet Manager diffs
// dead fabrics against. The rows and their port slots are one
// allocation each.
func (m *Mesh) EdgeGUIDs() []SwitchEdges {
	rows := make([]SwitchEdges, len(m.Switches))
	ports := 0
	for _, sw := range m.Switches {
		ports += sw.NumPorts()
	}
	slab := make([]uint64, ports)
	for i, sw := range m.Switches {
		n := sw.NumPorts()
		rows[i] = SwitchEdges{GUID: sw.GUID(), Peers: slab[:n:n]}
		slab = slab[n:]
		for p := range rows[i].Peers {
			isHCA, peer, _, ok := m.LinkPeer(i, p)
			switch {
			case !ok:
			case isHCA:
				rows[i].Peers[p] = m.HCAs[peer].GUID()
			default:
				rows[i].Peers[p] = m.Switches[peer].GUID()
			}
		}
	}
	return rows
}

// RoutesAvoiding computes, for every live switch, a forwarding table
// (LID to egress port) of BFS shortest paths through the mesh that avoid
// the given dead switches and dead links. A link is dead if either
// direction appears in deadLinks. LIDs are read from the HCAs' current
// assignments; unreachable or link-severed destinations are simply
// omitted (packets to them will count as unroutable rather than ride a
// stale route into a black hole).
func (m *Mesh) RoutesAvoiding(deadSwitches map[int]bool, deadLinks map[LinkID]bool) map[int]map[packet.LID]int {
	linkDead := func(sw, port int) bool {
		if deadLinks[LinkID{sw, port}] {
			return true
		}
		if isHCA, peer, peerPort, ok := m.LinkPeer(sw, port); ok && !isHCA {
			return deadLinks[LinkID{peer, peerPort}]
		}
		return false
	}
	// Switch-only graph over the survivors, keyed by GUID.
	g := make(SwitchGraph)
	idxOf := make(map[uint64]int)
	for i, sw := range m.Switches {
		if deadSwitches[i] {
			continue
		}
		idxOf[sw.GUID()] = i
		edges := make(map[int]uint64)
		for p := PortEast; p <= PortNorth; p++ {
			isHCA, peer, _, ok := m.LinkPeer(i, p)
			if !ok || isHCA || deadSwitches[peer] || linkDead(i, p) {
				continue
			}
			edges[p] = m.Switches[peer].GUID()
		}
		g[sw.GUID()] = edges
	}
	hops := NextHops(g)

	routes := make(map[int]map[packet.LID]int)
	for guid, idx := range idxOf {
		table := make(map[packet.LID]int)
		for n := range m.HCAs {
			// Destination n's attachment must be alive.
			if deadSwitches[n] || linkDead(n, PortHCA) {
				continue
			}
			lid := m.HCAs[n].LID()
			if lid == 0 {
				continue
			}
			if n == idx {
				table[lid] = PortHCA
				continue
			}
			if p, ok := hops[guid][m.Switches[n].GUID()]; ok {
				table[lid] = p
			}
		}
		routes[idx] = table
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
