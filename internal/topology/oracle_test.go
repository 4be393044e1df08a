package topology

import (
	"sort"

	"ibasec/internal/packet"
)

// The reference the tests hold route.go's one search to: the all-pairs
// search over a map-of-maps graph keyed by GUID that computed every
// route before it, and RoutesAvoiding as it was written over that
// search.

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

// routesAvoidingRef computes, for every live switch, a forwarding table
// (LID to egress port) of BFS shortest paths through the mesh that avoid
// the given dead switches and dead links. A link is dead if either
// direction appears in deadLinks. LIDs are read from the HCAs' current
// assignments; unreachable or link-severed destinations are simply
// omitted (packets to them will count as unroutable rather than ride a
// stale route into a black hole).
func (m *Mesh) routesAvoidingRef(deadSwitches map[int]bool, deadLinks map[LinkID]bool) map[int]map[packet.LID]int {
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
