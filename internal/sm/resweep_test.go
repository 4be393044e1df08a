package sm

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// sweepRecord is one sweep's result, copied out of the Discoverer's
// storage: the nodes with their paths, the edges, the request counts
// and the lost-edge reports in the order they came; then, for a sweep
// that configured, every switch's forwarding entry by LID (-1: none)
// and every HCA's LID.
type sweepRecord struct {
	Switches, CAs             []DiscoveredNode
	Edges                     topology.EdgeSet
	Probes, Retries, Timeouts int
	Lost                      [][2]uint64 // (from GUID, port)
	Routes                    []int
	LIDs                      []packet.LID
}

// resweepRun probes a blank w x h mesh from node 0 once, then once more
// per script byte, flipping the link the byte names (any switch port
// with a peer, HCA links included) before that sweep. Each sweep's
// known edges are the last sweep's. The first sweep, and each whose
// edges changed, then configures with every LID assigned so far pinned,
// as the Resweeper does. fresh gives every sweep a new Discoverer;
// otherwise one Discoverer is Reset and reused.
func resweepRun(t *testing.T, w, h int, script []byte, fresh bool) []sweepRecord {
	t.Helper()
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), w, h)
	AttachSwitchAgents(mesh, discMKey)
	for _, hca := range mesh.HCAs {
		AttachNodeAgent(hca, discMKey)
	}
	var links []topology.LinkID
	for i, sw := range mesh.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			if _, _, _, ok := mesh.LinkPeer(i, p); ok {
				links = append(links, topology.LinkID{Switch: i, Port: p})
			}
		}
	}
	up := make([]bool, len(links))
	for i := range up {
		up[i] = true
	}
	known := mesh.Edges()
	pins := make(map[uint64]packet.LID)
	var disc *Discoverer
	var out []sweepRecord
	for sweep := 0; sweep <= len(script); sweep++ {
		if sweep > 0 {
			i := int(script[sweep-1]) % len(links)
			up[i] = !up[i]
			l := links[i]
			mesh.Switches[l.Switch].SetLinkState(l.Port, up[i])
			if isHCA, peer, peerPort, _ := mesh.LinkPeer(l.Switch, l.Port); isHCA {
				mesh.HCAs[peer].SetLinkState(up[i])
			} else {
				mesh.Switches[peer].SetLinkState(peerPort, up[i])
			}
		}
		if fresh || disc == nil {
			disc = NewDiscoverer(s, mesh.HCA(0), discMKey, 25*sim.Microsecond)
			disc.MaxRetries = 2
		}
		disc.Reset()
		var rec sweepRecord
		disc.KnownEdges = known
		disc.OnLostEdge = func(from uint64, port int) { rec.Lost = append(rec.Lost, [2]uint64{from, uint64(port)}) }
		done := false
		disc.Probe(func(topo *DiscoveredTopology) {
			done = true
			for _, n := range topo.Switches {
				c := *n
				c.Path = append([]byte(nil), n.Path...)
				rec.Switches = append(rec.Switches, c)
			}
			for _, n := range topo.CAs {
				c := *n
				c.Path = append([]byte(nil), n.Path...)
				rec.CAs = append(rec.CAs, c)
			}
			rec.Edges = maps.Clone(topo.Edges)
			rec.Probes, rec.Retries, rec.Timeouts = topo.Probes, topo.Retries, topo.Timeouts
		})
		s.Run() // drains late responses too, so no sweep sees the last one's
		if !done {
			t.Fatalf("sweep %d never completed", sweep)
		}
		if sweep == 0 || !maps.Equal(rec.Edges, known) {
			done = false
			disc.Pins = pins
			disc.Configure(func(topo *DiscoveredTopology) {
				done = true
				for _, ca := range topo.CAs {
					pins[ca.GUID] = ca.LID
				}
				rec.Probes, rec.Retries, rec.Timeouts = topo.Probes, topo.Retries, topo.Timeouts
			})
			s.Run()
			if !done {
				t.Fatalf("sweep %d never finished configuring", sweep)
			}
			for _, sw := range mesh.Switches {
				for lid := packet.LID(1); int(lid) <= len(mesh.HCAs); lid++ {
					port, ok := sw.Route(lid)
					if !ok {
						port = -1
					}
					rec.Routes = append(rec.Routes, port)
				}
			}
			for _, hca := range mesh.HCAs {
				rec.LIDs = append(rec.LIDs, hca.LID())
			}
		}
		known = rec.Edges
		out = append(out, rec)
	}
	return out
}

// FuzzResweep is differential: a Discoverer that reuses its state over
// several sweeps — its node records, paths, probe slots, edge set and
// configure count — with links dying and returning between sweeps must
// report, sweep for sweep, exactly what a fresh Discoverer per sweep
// reports: the same switches and CAs with the same paths and
// attachments, the same edges, the same probe, retry and timeout counts
// and the same lost-edge reports, and after a configure the same
// forwarding tables and LIDs.
func FuzzResweep(f *testing.F) {
	for _, seed := range []struct {
		size   byte
		script string
	}{
		{0, ""},
		{0, "\x01\x01"},
		{1, "\x03\x07\x03"},
		{2, "\x00\x00"}, // the SM's own HCA link: a sweep that finds nothing
		{3, "\x05\x09\x0d\x05\x09\x0d"},
		{3, "\x02\x11\x17\x23\x02"},
		{1, "\xff\x80\x40\x20"},
	} {
		f.Add(seed.size, []byte(seed.script))
	}
	f.Fuzz(func(t *testing.T, size byte, script []byte) {
		if len(script) > 8 {
			script = script[:8]
		}
		w, h := 2+int(size&1), 2+int(size>>1&1)
		reused := resweepRun(t, w, h, script, false)
		fresh := resweepRun(t, w, h, script, true)
		if len(fresh[0].Switches) != w*h || len(fresh[0].CAs) != w*h {
			t.Fatalf("the first sweep found %d switches and %d CAs of %d", len(fresh[0].Switches), len(fresh[0].CAs), w*h)
		}
		if slices.Contains(fresh[0].Routes, -1) || slices.Contains(fresh[0].LIDs, 0) {
			t.Fatalf("the first configure left a route or a LID unset: routes %v, LIDs %v", fresh[0].Routes, fresh[0].LIDs)
		}
		for i := range fresh {
			if !reflect.DeepEqual(reused[i], fresh[i]) {
				t.Fatalf("sweep %d of %dx%d, script %v:\nreused %+v\nfresh  %+v", i, w, h, script, reused[i], fresh[i])
			}
		}
	})
}

// TestResweepAllocations holds a primed 4×4 Resweeper, its Discoverer
// set up as a cluster's is (MaxRetries 2, SetTimeoutMult 10), to an
// allocation gate: a sweep of an unchanged fabric allocates nothing, and
// an inter-switch link going down and coming back — two sweeps, each a
// reroute through in-band configure — allocates only what the two
// configure passes make. The budget is the count measured under Go 1.24
// (10) plus a margin.
func TestResweepAllocations(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	const flapBudget = 10 + 4
	s := sim.New()
	mesh := topology.NewMesh(s, fabric.DefaultParams(), 4, 4)
	AttachSwitchAgents(mesh, discMKey)
	AttachNodeAgents(mesh.HCAs, discMKey)
	disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 25*sim.Microsecond)
	disc.MaxRetries, disc.SetTimeoutMult = 2, 10
	r := NewResweeper(s, disc, 200*sim.Microsecond)
	r.PrimeStatic(mesh)
	sweep := func() {
		r.tick()
		s.Run()
	}
	setLink := func(up bool) {
		mesh.Switches[5].SetLinkState(topology.PortEast, up)
		mesh.Switches[6].SetLinkState(topology.PortWest, up)
	}
	flap := func() {
		setLink(false)
		sweep()
		setLink(true)
		sweep()
	}

	if got := testing.AllocsPerRun(10, sweep); got != 0 {
		t.Errorf("a steady sweep allocated %.1f times, want 0", got)
	}
	if n := r.Counters.Value(ResweepReroutes); n != 0 {
		t.Fatalf("%d reroutes on an unchanged fabric", n)
	}
	const runs = 5
	got := testing.AllocsPerRun(runs, flap)
	if n := r.Counters.Value(ResweepReroutes); n != 2*(runs+1) {
		t.Fatalf("%d reroutes over %d flaps, want two each", n, runs+1)
	}
	t.Logf("a link flap (two reroutes) allocated %.1f times", got)
	if got > flapBudget {
		t.Errorf("a link flap (two reroutes) allocated %.1f times, want at most %d", got, flapBudget)
	}
}
