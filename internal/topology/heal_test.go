package topology

import (
	"testing"
)

func TestLinkPeerGeometry(t *testing.T) {
	_, m := build(t, 3, 2)
	cases := []struct {
		sw, port       int
		isHCA          bool
		peer, peerPort int
		ok             bool
	}{
		{0, PortHCA, true, 0, 0, true},
		{0, PortEast, false, 1, PortWest, true},
		{0, PortSouth, false, 3, PortNorth, true},
		{0, PortWest, false, 0, 0, false},  // west boundary
		{0, PortNorth, false, 0, 0, false}, // north boundary
		{2, PortEast, false, 0, 0, false},  // east boundary
		{4, PortNorth, false, 1, PortSouth, true},
		{5, PortSouth, false, 0, 0, false}, // south boundary
	}
	for _, c := range cases {
		isHCA, peer, peerPort, ok := m.LinkPeer(c.sw, c.port)
		if ok != c.ok || (ok && (isHCA != c.isHCA || peer != c.peer || peerPort != c.peerPort)) {
			t.Fatalf("LinkPeer(%d, %d) = (%v, %d, %d, %v), want (%v, %d, %d, %v)",
				c.sw, c.port, isHCA, peer, peerPort, ok, c.isHCA, c.peer, c.peerPort, c.ok)
		}
	}
}

// Every LinkPeer edge must be symmetric: the peer's peer is the origin.
func TestLinkPeerSymmetric(t *testing.T) {
	_, m := build(t, 4, 3)
	for i := range m.Switches {
		for p := PortEast; p <= PortNorth; p++ {
			isHCA, peer, peerPort, ok := m.LinkPeer(i, p)
			if !ok || isHCA {
				continue
			}
			_, back, backPort, ok2 := m.LinkPeer(peer, peerPort)
			if !ok2 || back != i || backPort != p {
				t.Fatalf("edge sw%d.p%d -> sw%d.p%d not symmetric", i, p, peer, peerPort)
			}
		}
	}
}

func TestNextHopsShortestAndDeterministic(t *testing.T) {
	_, m := build(t, 4, 4)
	g := SwitchGraph{}
	for _, row := range m.EdgeGUIDs() {
		// Switch-only view: drop the HCA leaves.
		e := map[int]uint64{}
		for p, n := range row.Peers {
			if p != PortHCA && n != 0 {
				e[p] = n
			}
		}
		g[row.GUID] = e
	}
	a := NextHops(g)
	b := NextHops(g)
	for src := range a {
		for dst, port := range a[src] {
			if b[src][dst] != port {
				t.Fatalf("NextHops not deterministic at %#x -> %#x", src, dst)
			}
		}
		if len(a[src]) != len(g)-1 {
			t.Fatalf("source %#x reaches %d of %d nodes", src, len(a[src]), len(g)-1)
		}
	}
	// Shortest-path check on known geometry: switch 0 to switch 3 is
	// three east hops; the first must leave through the east port.
	s0, s3 := m.Switches[0].GUID(), m.Switches[3].GUID()
	if a[s0][s3] != PortEast {
		t.Fatalf("0 -> 3 leaves through port %d, want east", a[s0][s3])
	}
}

// Routes computed around a dead link must not use it, must still cover
// every destination (the 4x4 mesh stays connected), and reprogramming
// must land them in the switches' forwarding tables.
func TestRoutesAvoidingDeadLink(t *testing.T) {
	_, m := build(t, 4, 4)
	dead := map[LinkID]bool{{Switch: 1, Port: PortEast}: true}
	routes := m.RoutesAvoiding(nil, dead)

	if len(routes) != len(m.Switches) {
		t.Fatalf("routes for %d of %d switches", len(routes), len(m.Switches))
	}
	for idx, table := range routes {
		if len(table) != len(m.HCAs) {
			t.Fatalf("switch %d routes %d of %d LIDs around a single dead link",
				idx, len(table), len(m.HCAs))
		}
	}
	// The dead link's two ends must not forward into it.
	for dst := range m.HCAs {
		if routes[1][LIDOf(dst)] == PortEast && dst != 1 {
			// East of switch 1 is switch 2 — reaching any LID through the
			// dead link is a routing error (switch 1's own HCA aside).
			t.Fatalf("switch 1 routes LID %d into the dead east link", LIDOf(dst))
		}
		if routes[2][LIDOf(dst)] == PortWest && dst != 2 {
			t.Fatalf("switch 2 routes LID %d into the dead west link", LIDOf(dst))
		}
	}

	m.Reprogram(routes)
	for idx, table := range routes {
		for n := range m.HCAs {
			lid := LIDOf(n)
			port, ok := m.Switches[idx].Route(lid)
			if !ok || port != table[lid] {
				t.Fatalf("switch %d LID %d: programmed %d,%v want %d", idx, lid, port, ok, table[lid])
			}
		}
	}
}

// A dead switch disappears from the route set entirely: no surviving
// switch routes to its HCA, and it gets no table.
func TestRoutesAvoidingDeadSwitch(t *testing.T) {
	_, m := build(t, 4, 4)
	deadSw := map[int]bool{5: true}
	routes := m.RoutesAvoiding(deadSw, nil)
	if _, ok := routes[5]; ok {
		t.Fatal("dead switch got a forwarding table")
	}
	if len(routes) != len(m.Switches)-1 {
		t.Fatalf("routes for %d switches, want %d", len(routes), len(m.Switches)-1)
	}
	for idx, table := range routes {
		if _, ok := table[LIDOf(5)]; ok {
			t.Fatalf("switch %d still routes to the dead switch's HCA", idx)
		}
		if len(table) != len(m.HCAs)-1 {
			t.Fatalf("switch %d covers %d LIDs, want %d", idx, len(table), len(m.HCAs)-1)
		}
	}
}

// Reprogram clears entries for destinations a new table omits, so
// packets to severed LIDs become unroutable instead of blackholed.
func TestReprogramClearsSeveredRoutes(t *testing.T) {
	_, m := build(t, 2, 2)
	// Sever node 3's HCA uplink.
	dead := map[LinkID]bool{{Switch: 3, Port: PortHCA}: true}
	m.Reprogram(m.RoutesAvoiding(nil, dead))
	for idx := range m.Switches {
		if _, ok := m.Switches[idx].Route(LIDOf(3)); ok {
			t.Fatalf("switch %d kept a route to the severed HCA", idx)
		}
	}
	// Everything else still routed.
	for dst := 0; dst < 3; dst++ {
		if _, ok := m.Switches[0].Route(LIDOf(dst)); !ok {
			t.Fatalf("route to healthy LID %d lost", LIDOf(dst))
		}
	}
}
