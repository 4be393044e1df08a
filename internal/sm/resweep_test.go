package sm

import (
	"reflect"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// sweepRecord is one probe sweep's result, copied out of the
// Discoverer's storage: the nodes with their paths, the edges, the
// request counts and the lost-edge reports in the order they came.
type sweepRecord struct {
	Switches, CAs             []DiscoveredNode
	Edges                     map[uint64]map[int]uint64
	Probes, Retries, Timeouts int
	Lost                      [][2]uint64 // (from GUID, port)
}

// resweepRun probes a blank w x h mesh from node 0 once, then once more
// per script byte, flipping the link the byte names (any switch port
// with a peer, HCA links included) before that sweep. Each sweep's
// known edges are the last sweep's. fresh gives every sweep a new
// Discoverer; otherwise one Discoverer is Reset and reused, as the
// Resweeper does.
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
	known := map[uint64]map[int]uint64(mesh.EdgeGUIDs())
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
			rec.Edges = copyEdges(topo.Edges)
			rec.Probes, rec.Retries, rec.Timeouts = topo.Probes, topo.Retries, topo.Timeouts
		})
		s.Run() // drains late responses too, so no sweep sees the last one's
		if !done {
			t.Fatalf("sweep %d never completed", sweep)
		}
		known = rec.Edges
		out = append(out, rec)
	}
	return out
}

// FuzzResweep is differential: a Discoverer that reuses its state over
// several sweeps — its node records, paths, probe slots and edge maps —
// with links dying and returning between sweeps must report, sweep for
// sweep, exactly what a fresh Discoverer per sweep reports: the same
// switches and CAs with the same paths, the same edges, the same probe,
// retry and timeout counts and the same lost-edge reports.
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
		for i := range fresh {
			if !reflect.DeepEqual(reused[i], fresh[i]) {
				t.Fatalf("sweep %d of %dx%d, script %v:\nreused %+v\nfresh  %+v", i, w, h, script, reused[i], fresh[i])
			}
		}
	})
}
