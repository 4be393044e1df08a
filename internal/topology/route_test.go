package topology

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// TestSearchShortestAndDeterministic checks the search on a whole 4x4
// mesh: from every root it reaches every switch, along a path as long as
// the Manhattan distance, and a second search from the same root builds
// the same tree. Switch 0 to switch 3 is three east hops, so the first
// leaves through the east port.
func TestSearchShortestAndDeterministic(t *testing.T) {
	_, m := build(t, 4, 4)
	all := func(_, _ LinkID) bool { return true }
	var a, b Tree
	for root := range m.Switches {
		a.SearchMesh(m.W, m.H, root, all)
		b.SearchMesh(m.W, m.H, root, all)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("root %d: two searches built different trees", root)
		}
		if a.Reached() != len(m.Switches) {
			t.Fatalf("root %d reaches %d of %d switches", root, a.Reached(), len(m.Switches))
		}
		for i, path := range a.Paths() {
			if want := m.Hops(root, i) - 1; len(path) != want {
				t.Fatalf("root %d -> %d: path %v, want %d hops", root, i, path, want)
			}
		}
	}
	a.SearchMesh(m.W, m.H, 0, all)
	if p, ok := a.FirstHop(3); !ok || p != PortEast {
		t.Fatalf("0 -> 3 leaves through port %d (%v), want east", p, ok)
	}
	if _, ok := a.FirstHop(0); ok {
		t.Fatal("the root has a first hop to itself")
	}
}

// checkAgainstNextHops holds the search from every live switch of m,
// over the directed edges alive admits, to NextHops over the same graph:
// every path (so every first hop) walked hop by hop, every first hop
// FirstHop reports, and every reach count. It returns how many
// (root, switch) pairs the reference left unreached.
func checkAgainstNextHops(t testing.TB, m *Mesh, dead map[int]bool, alive func(sw, port int) (int, bool)) (unreached int) {
	t.Helper()
	g := SwitchGraph{}
	for i, sw := range m.Switches {
		if dead[i] {
			continue
		}
		edges := map[int]uint64{}
		for p := 0; p < sw.NumPorts(); p++ {
			if peer, ok := alive(i, p); ok {
				edges[p] = m.Switches[peer].GUID()
			}
		}
		g[sw.GUID()] = edges
	}
	next := NextHops(g)
	var tree Tree
	for root, rsw := range m.Switches {
		if dead[root] {
			continue
		}
		tree.Search(len(m.Switches), PortNorth+1, root, alive)
		if got, want := tree.Reached(), len(next[rsw.GUID()])+1; got != want {
			t.Fatalf("%dx%d root %d: search reaches %d switches, NextHops %d", m.W, m.H, root, got, want)
		}
		paths := tree.Paths()
		for i, sw := range m.Switches {
			var want []byte
			if !dead[i] {
				want = []byte{}
				for cur := rsw.GUID(); cur != sw.GUID(); {
					p, ok := next[cur][sw.GUID()]
					if !ok {
						want = nil
						break
					}
					want = append(want, byte(p))
					cur = g[cur][p]
				}
			}
			if want == nil {
				unreached++
			}
			if (paths[i] == nil) != (want == nil) || !bytes.Equal(paths[i], want) {
				t.Fatalf("%dx%d root %d, switch %d: path %v, NextHops walk %v", m.W, m.H, root, i, paths[i], want)
			}
			p, ok := tree.FirstHop(i)
			if wantP, wantOK := next[rsw.GUID()][sw.GUID()]; ok != wantOK || p != wantP {
				t.Fatalf("%dx%d root %d, switch %d: first hop %d (%v), NextHops %d (%v)", m.W, m.H, root, i, p, ok, wantP, wantOK)
			}
		}
	}
	return unreached
}

// deadSet draws a random set of dead switches (each with probability
// pSw) and dead link halves (each with probability pLink), never
// killing every switch.
func deadSet(rng *rand.Rand, m *Mesh, pSw, pLink float64) (map[int]bool, map[LinkID]bool) {
	sws, links := map[int]bool{}, map[LinkID]bool{}
	for i := range m.Switches {
		if i > 0 && rng.Float64() < pSw {
			sws[i] = true
		}
		for p := PortEast; p <= PortNorth; p++ {
			if _, _, ok := MeshNeighbor(m.W, m.H, i, p); ok && rng.Float64() < pLink {
				links[LinkID{i, p}] = true
			}
		}
	}
	return sws, links
}

// TestRoutesMatchReference is the differential test of the one search:
// on every mesh from 1x1 to 8x8, whole and with seeded random dead
// switches and dead links, RoutesAvoiding's tables and the forwarding
// entries ProgramAvoiding writes, the search's paths and first hops from
// every root, and its reach count all equal what the reference gives.
func TestRoutesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unreached := 0
	for w := 1; w <= 8; w++ {
		for h := 1; h <= 8; h++ {
			m := NewMesh(sim.New(), fabric.DefaultParams(), w, h)
			for trial := 0; trial < 4; trial++ {
				var deadSw map[int]bool
				var deadLinks map[LinkID]bool
				switch trial {
				case 1:
					_, deadLinks = deadSet(rng, m, 0, 0.25)
				case 2:
					deadSw, _ = deadSet(rng, m, 0.2, 0)
				case 3:
					deadSw, deadLinks = deadSet(rng, m, 0.1, 0.15)
				}
				want := m.routesAvoidingRef(deadSw, deadLinks)
				if got := m.RoutesAvoiding(deadSw, deadLinks); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d trial %d: RoutesAvoiding\n%v\nreference\n%v", w, h, trial, got, want)
				}
				if n := m.ProgramAvoiding(deadSw, deadLinks); n != len(want) {
					t.Fatalf("%dx%d trial %d: ProgramAvoiding wrote %d switches, want %d", w, h, trial, n, len(want))
				}
				for sw, table := range want {
					for _, hca := range m.HCAs {
						port, ok := m.Switches[sw].Route(hca.LID())
						if wantPort, wantOK := table[hca.LID()]; ok != wantOK || port != wantPort && ok {
							t.Fatalf("%dx%d trial %d: switch %d programs LID %d to %d,%v, reference %d,%v",
								w, h, trial, sw, hca.LID(), port, ok, wantPort, wantOK)
						}
					}
				}
				unreached += checkAgainstNextHops(t, m, deadSw, func(sw, port int) (int, bool) {
					next, back, ok := MeshNeighbor(w, h, sw, port)
					return next, ok && !deadSw[next] && !deadLinks[LinkID{sw, port}] && !deadLinks[LinkID{next, back}]
				})
			}
		}
	}
	if unreached == 0 {
		t.Fatal("no dead set cut a switch off: the unreached case went untested")
	}
}

// TestSwitchPathsMatchNextHops holds the search's directed-route paths
// to the paths of walking NextHops hop by hop from every root of 2x2,
// 4x4 and 6x6 meshes, whole and with random link subsets removed: an
// unreachable switch gets nil, the root an empty, non-nil path.
func TestSwitchPathsMatchNextHops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unreached := 0
	for _, n := range []int{2, 4, 6} {
		m := NewMesh(sim.New(), fabric.DefaultParams(), n, n)
		for trial := 0; trial < 8; trial++ {
			dead := map[LinkID]bool{}
			if trial > 0 {
				for i := range m.Switches {
					for _, p := range []int{PortEast, PortSouth} {
						if rng.Intn(4) == 0 {
							dead[LinkID{Switch: i, Port: p}] = true
						}
					}
				}
			}
			unreached += checkAgainstNextHops(t, m, nil, func(sw, port int) (int, bool) {
				isHCA, peer, peerPort, ok := m.LinkPeer(sw, port)
				if !ok || isHCA || dead[LinkID{Switch: sw, Port: port}] || dead[LinkID{Switch: peer, Port: peerPort}] {
					return 0, false
				}
				return peer, true
			})
		}
	}
	if unreached == 0 {
		t.Fatal("no removed subset cut a switch off: the nil case went untested")
	}
}

// FuzzRoutesAvoiding holds RoutesAvoiding and the search to the
// reference on a w×h mesh (each 1..8) with the switches deadMask names
// dead and seeded random link halves dead. RoutesAvoiding kills a link
// when either half is dead; the search is also run over the asymmetric
// graph a discovery sweep can see, where a dead half removes only its
// own direction.
func FuzzRoutesAvoiding(f *testing.F) {
	f.Add(uint8(4), uint8(4), int64(1), uint64(0))
	f.Add(uint8(3), uint8(5), int64(7), uint64(1<<5))
	f.Add(uint8(8), uint8(8), int64(3), uint64(0x8000_0000_0001))
	f.Fuzz(func(t *testing.T, w, h uint8, seed int64, deadMask uint64) {
		m := NewMesh(sim.New(), fabric.DefaultParams(), int(w%8)+1, int(h%8)+1)
		deadSw := map[int]bool{}
		for i := range m.Switches {
			if deadMask>>i&1 == 1 {
				deadSw[i] = true
			}
		}
		_, halves := deadSet(rand.New(rand.NewSource(seed)), m, 0, 0.2)
		if got, want := m.RoutesAvoiding(deadSw, halves), m.routesAvoidingRef(deadSw, halves); !reflect.DeepEqual(got, want) {
			t.Fatalf("RoutesAvoiding\n%v\nreference\n%v", got, want)
		}
		checkAgainstNextHops(t, m, deadSw, func(sw, port int) (int, bool) {
			next, _, ok := MeshNeighbor(m.W, m.H, sw, port)
			return next, ok && !deadSw[next] && !halves[LinkID{sw, port}]
		})
	})
}

// TestAltPathSwitchesFollowTables walks every pair's alternate LID
// through the forwarding tables ProgramAlternatePaths wrote and the base
// LID through NewMesh's: the alternate walk visits AltPathSwitches, the
// base walk as many switches as Hops counts, and the two share no
// intermediate link when the pair differs in both coordinates.
func TestAltPathSwitchesFollowTables(t *testing.T) {
	_, m := build(t, 4, 3)
	m.ProgramAlternatePaths()
	walk := func(src int, lid packet.LID) ([]int, map[LinkID]bool) {
		path, links := []int{src}, map[LinkID]bool{}
		for sw := src; ; {
			port, ok := m.Switches[sw].Route(lid)
			if !ok {
				t.Fatalf("switch %d has no route to LID %d", sw, lid)
			}
			if port == PortHCA {
				return path, links
			}
			links[LinkID{sw, port}] = true
			_, sw, _, _ = m.LinkPeer(sw, port)
			path = append(path, sw)
		}
	}
	for src := range m.HCAs {
		for dst := range m.HCAs {
			alt, altLinks := walk(src, AltLIDOf(dst))
			if want := m.AltPathSwitches(src, dst); fmt.Sprint(alt) != fmt.Sprint(want) {
				t.Fatalf("%d -> %d: alternate tables walk %v, AltPathSwitches %v", src, dst, alt, want)
			}
			base, baseLinks := walk(src, LIDOf(dst))
			if len(base) != m.Hops(src, dst) {
				t.Fatalf("%d -> %d: base walk %v, want %d switches", src, dst, base, m.Hops(src, dst))
			}
			if src%m.W != dst%m.W && src/m.W != dst/m.W {
				for l := range altLinks {
					if baseLinks[l] {
						t.Fatalf("%d -> %d: both paths leave switch %d through port %d", src, dst, l.Switch, l.Port)
					}
				}
			}
		}
	}
}
