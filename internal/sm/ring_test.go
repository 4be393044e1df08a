package sm

import (
	"bytes"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// tally is a typed completion that counts what it is handed, per tag.
type tally struct {
	calls  map[uint64]int
	status map[uint64]byte
}

func newTally() *tally { return &tally{calls: map[uint64]int{}, status: map[uint64]byte{}} }

func (c *tally) SMPDone(tag uint64, status byte, _, _ []byte) {
	c.calls[tag]++
	c.status[tag] = status
}

// lastDone is the allocation-free typed completion: it keeps the last
// status and counts calls.
type lastDone struct {
	n      int
	status byte
}

func (c *lastDone) SMPDone(_ uint64, status byte, _, _ []byte) { c.n, c.status = c.n+1, status }

// line builds a blank 1-high mesh of n switches with every agent attached
// and a Discoverer on node 0.
func line(n int) (*sim.Simulator, *topology.Mesh, *Discoverer) {
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), n, 1)
	AttachSwitchAgents(mesh, discMKey)
	for _, hca := range mesh.HCAs {
		AttachNodeAgent(hca, discMKey)
	}
	return s, mesh, NewDiscoverer(s, mesh.HCA(0), discMKey, 50*sim.Microsecond)
}

// TestSMPTransitAllocs holds one directed-route Get round trip to no
// allocation at all — the request and the response MAD reuse the two
// message blocks AllocsPerRun's warm-up round left on the fabric's free
// list — whether the target is the SM's own switch, a switch two transit
// switches away in each direction, or one at the end of a 16-hop path,
// whose transit switches write every return-path slot, and whether it
// reads NodeInfo or has the switch agent digest its enforcement tables
// into an AuditState answer. Every transit hop writes its edit into an
// image that still owes its CRCs.
func TestSMPTransitAllocs(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	s, mesh, disc := line(smpMaxHops + 1)
	f := enforce.NewFilter(enforce.SIF, fabric.DefaultParams())
	agents := AttachSwitchAgents(mesh, discMKey) // re-attached, now with a filter to audit
	for _, a := range agents {
		a.Enforce = f
	}
	for _, sw := range mesh.Switches {
		f.AddValid(sw, 0x8001)
		f.AddValid(sw, 0x8002)
		f.RegisterInvalid(sw, 0x0003)
		f.RegisterAltSource(sw, 7)
	}
	var done lastDone
	roundTrip := func(attr byte, path []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			disc.request(smpMethodGet, attr, path, nil, 0, &done, 7)
			s.Run()
			if done.status != smpStatusOK {
				t.Fatalf("Get %d along %v completed with status %#x", attr, path, done.status)
			}
		})
	}
	far := []byte{topology.PortEast, topology.PortEast}
	longest := bytes.Repeat([]byte{topology.PortEast}, smpMaxHops)
	for _, tc := range []struct {
		attr byte
		path []byte
	}{{smpAttrNodeInfo, nil}, {smpAttrNodeInfo, far}, {smpAttrAuditState, far}, {smpAttrNodeInfo, longest}} {
		if got := roundTrip(tc.attr, tc.path); got != 0 {
			t.Errorf("a Get %d along %v allocated %.0f times, want 0", tc.attr, tc.path, got)
		}
	}
	if done.n != 4*51 {
		t.Errorf("%d completions for %d requests", done.n, 4*51)
	}
	if n := mesh.Switches[2].Counters.Value(fabric.SwSMPAuditState); n != 51 {
		t.Errorf("the far switch answered %d AuditState Gets, want 51", n)
	}
	// Each round trip crosses its path's transit switches both ways.
	var patched, sealed int
	for _, a := range agents {
		p, s := a.TransitReseals()
		patched, sealed = patched+p, sealed+s
	}
	if want := 51 * 2 * (2 + 2 + smpMaxHops); patched != want || sealed != 0 {
		t.Errorf("%d transit reseals patched, %d sealed whole; want %d and 0", patched, sealed, want)
	}
}

// BenchmarkSMPTransit measures one transit hop of a 68-byte DR-SMP at a
// switch's SMA — the parse, the hop's edit, the CRC refresh and SendRaw —
// outbound (hop pointer and return-path slot) and returning (hop pointer
// only). Each op restores the sealed image and CRC fields from a copy, and
// the path leads out of the lone switch's unconnected east port, where
// SendRaw counts and drops the SMP instead of queueing it.
func BenchmarkSMPTransit(b *testing.B) {
	mesh := topology.NewBlankMesh(sim.New(), fabric.DefaultParams(), 1, 1)
	sw := mesh.Switches[0]
	agent := AttachSwitchAgents(mesh, discMKey)[0]
	path := []byte{topology.PortEast, topology.PortEast}
	out := newSMP(smpMethodGet, smpAttrNodeInfo, 3, discMKey, path)
	ret := out
	ret[smpOffDir], ret[smpOffHopPtr], ret[smpOffRet] = 1, 1, topology.PortEast
	for _, tc := range []struct {
		name string
		pl   []byte
	}{{"outbound", out[:]}, {"returning", ret[:]}} {
		b.Run(tc.name, func(b *testing.B) {
			pkt := sw.Params().NewMAD(1, packet.LIDPermissive, tc.pl).Pkt
			sealed := append([]byte(nil), pkt.Wire()...)
			ic, vc := pkt.ICRC, pkt.VCRC
			var d fabric.Delivery
			dead := sw.Counters.Value(fabric.SwDeadPort)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(pkt.Wire(), sealed)
				pkt.ICRC, pkt.VCRC = ic, vc
				d = fabric.Delivery{Pkt: pkt, Class: fabric.ClassManagement, VL: fabric.VLManagement}
				agent.HandleMAD(sw, topology.PortWest, &d)
			}
			b.StopTimer()
			if n := sw.Counters.Value(fabric.SwDeadPort) - dead; n != uint64(b.N) {
				b.Fatalf("%d of %d SMPs forwarded", n, b.N)
			}
		})
	}
}

// TestPendingRingGrowth drives the outstanding-request table past its
// first size and through both kinds of unmatched response.
func TestPendingRingGrowth(t *testing.T) {
	t.Run("configure", func(t *testing.T) {
		// A 4x4 configure issues 16 SetLID and 256 SetRoute back to back.
		s := sim.New()
		mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 4, 4)
		AttachSwitchAgents(mesh, discMKey)
		for _, hca := range mesh.HCAs {
			AttachNodeAgent(hca, discMKey)
		}
		disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 50*sim.Microsecond)
		finished := 0
		disc.Discover(func(tp *DiscoveredTopology) {
			finished++
			// The probe phase's dead ports are its only timeouts and nothing
			// was retransmitted, so every Set was answered exactly once.
			if tp.Retries != 0 {
				t.Errorf("%d retransmissions on a healthy fabric", tp.Retries)
			}
		})
		s.Run()
		if finished != 1 {
			t.Fatalf("configure completed %d times", finished)
		}
		if len(disc.ring) <= ringInit {
			t.Fatalf("table still %d slots after 272 outstanding Sets", len(disc.ring))
		}
		var routes, lids uint64
		for _, sw := range mesh.Switches {
			routes += sw.Counters.Value(fabric.SwSMPRoutesSet)
		}
		for _, hca := range mesh.HCAs {
			lids += hca.Counters.Value(fabric.HCASMPLIDSet)
		}
		if routes != 256 || lids != 16 {
			t.Errorf("executed %d SetRoute and %d SetLID, want 256 and 16", routes, lids)
		}
		if disc.outstanding != 0 || s.Pending() != 0 {
			t.Errorf("%d requests outstanding, %d events pending after the run", disc.outstanding, s.Pending())
		}
		c := mesh.HCA(0).Counters
		if n := c.Get("smp_dup_responses") + c.Get("smp_late_responses"); n != 0 {
			t.Errorf("%d unmatched responses", n)
		}
	})

	t.Run("exactly once", func(t *testing.T) {
		// 100 requests outstanding at once, a mix of live targets and a dead
		// port, each under its own tag: growth moves pending slots, and
		// every one must still complete once with the right outcome.
		s, _, disc := line(3)
		got := newTally()
		paths := [][]byte{nil, {topology.PortEast}, {topology.PortEast, topology.PortEast}, {topology.PortNorth}}
		for i := 0; i < 100; i++ {
			disc.request(smpMethodGet, smpAttrNodeInfo, paths[i%len(paths)], nil, 0, got, uint64(i))
		}
		if disc.outstanding != 100 || len(disc.ring) < 128 {
			t.Fatalf("%d outstanding in a %d-slot table", disc.outstanding, len(disc.ring))
		}
		s.Run()
		for i := 0; i < 100; i++ {
			want := byte(smpStatusOK)
			if i%len(paths) == 3 {
				want = 0xFF // unconnected port: terminal timeout
			}
			if got.calls[uint64(i)] != 1 || got.status[uint64(i)] != want {
				t.Errorf("request %d: %d completions, status %#x, want one with %#x",
					i, got.calls[uint64(i)], got.status[uint64(i)], want)
			}
		}
		if probes, _, timeouts := disc.Stats(); probes != 100 || timeouts != 25 || disc.outstanding != 0 {
			t.Errorf("probes %d timeouts %d outstanding %d", probes, timeouts, disc.outstanding)
		}
	})

	// delayed runs one Get to the far switch of a line whose middle switch
	// holds the first SMP it sees past the 50us deadline.
	delayed := func(t *testing.T, retries int) (*fabric.HCA, *lastDone) {
		s, mesh, disc := line(3)
		first := true
		mesh.Switches[1].SetMADTap(func(*fabric.Switch, *fabric.Delivery) (bool, sim.Time) {
			if first {
				first = false
				return false, 120 * sim.Microsecond
			}
			return false, 0
		})
		var done lastDone
		disc.request(smpMethodGet, smpAttrNodeInfo, []byte{topology.PortEast, topology.PortEast}, nil, retries, &done, 0)
		s.Run()
		if done.n != 1 {
			t.Fatalf("%d completions", done.n)
		}
		return mesh.HCA(0), &done
	}

	t.Run("duplicate", func(t *testing.T) {
		// The retransmission is answered first; the delayed original's
		// answer then finds its TID among the answered.
		hca, done := delayed(t, 1)
		if done.status != smpStatusOK {
			t.Fatalf("status %#x", done.status)
		}
		if dup, late := hca.Counters.Value(fabric.HCASMPDupResponses), hca.Counters.Value(fabric.HCASMPLateResponses); dup != 1 || late != 0 {
			t.Errorf("dup %d late %d, want 1 and 0", dup, late)
		}
	})

	t.Run("late", func(t *testing.T) {
		// No retry budget: the request times out terminally, and the answer
		// that arrives afterwards was never answered before.
		hca, done := delayed(t, 0)
		if done.status != 0xFF {
			t.Fatalf("status %#x", done.status)
		}
		if dup, late := hca.Counters.Value(fabric.HCASMPDupResponses), hca.Counters.Value(fabric.HCASMPLateResponses); dup != 0 || late != 1 {
			t.Errorf("dup %d late %d, want 0 and 1", dup, late)
		}
	})

	t.Run("reset", func(t *testing.T) {
		// 40 requests into an unconnected port: once the fabric has dropped
		// the MADs only their deadlines are pending, and Reset cancels all.
		s, _, disc := line(3)
		prior := s.Pending()
		var done lastDone
		for i := 0; i < 40; i++ {
			disc.request(smpMethodGet, smpAttrNodeInfo, []byte{topology.PortNorth}, nil, 2, &done, 0)
		}
		s.RunUntil(25 * sim.Microsecond)
		if got := s.Pending(); got != prior+40 {
			t.Fatalf("%d events pending with 40 requests armed, want %d", got, prior+40)
		}
		disc.Reset()
		if got := s.Pending(); got != prior || disc.outstanding != 0 {
			t.Fatalf("after Reset: %d events pending (want %d), %d outstanding", got, prior, disc.outstanding)
		}
		s.Run()
		if done.n != 0 {
			t.Fatalf("a cancelled request completed %d times", done.n)
		}
	})
}

// FuzzSMPTransit hands a switch's SMA an arbitrary VL15 payload on an
// arbitrary port. Whatever it forwards must be, byte for byte, the wire
// image of a packet freshly built from the same fields and sealed from
// scratch — sealing over the image the edit was made in may not differ
// from sealing a fresh one — and must pass both CRC checks; a frame with
// malformed hop fields must still be consumed and counted. A forwarded
// SMP's edit is patched into its owing image, except that reparsed hands over a
// packet that does not own its image (what the bit-error model leaves
// behind) and tainted marks the delivery struck by bit errors: both must
// be sealed whole, and Seal gives the former a new image.
func FuzzSMPTransit(f *testing.F) {
	out := newSMP(smpMethodGet, smpAttrNodeInfo, 3, discMKey, []byte{topology.PortEast, topology.PortEast})
	f.Add(out[:], uint8(topology.PortWest), false, false)
	f.Add(out[:], uint8(topology.PortWest), true, false) // no owned image
	f.Add(out[:], uint8(topology.PortWest), false, true) // tainted
	ret := newSMP(smpMethodGet, smpAttrNodeInfo, 4, discMKey, []byte{topology.PortEast, topology.PortEast})
	ret[smpOffDir], ret[smpOffHopPtr], ret[smpOffRet] = 1, 1, topology.PortWest
	copy(ret[smpOffData:], "attribute data..")
	f.Add(ret[:], uint8(topology.PortEast), false, false)
	f.Add(ret[:], uint8(topology.PortEast), false, true)
	// A 16-hop path at every hop pointer, outbound (writing return-path
	// slot h) and returning (rewinding the pointer to h).
	path := bytes.Repeat([]byte{topology.PortEast}, smpMaxHops)
	for h := 0; h < smpMaxHops; h++ {
		o := newSMP(smpMethodGet, smpAttrNodeInfo, uint32(10+h), discMKey, path)
		o[smpOffHopPtr] = byte(h)
		f.Add(o[:], uint8(topology.PortWest), false, false)
		r := o
		r[smpOffDir], r[smpOffHopPtr] = 1, byte(h+1)
		f.Add(r[:], uint8(topology.PortEast), false, false)
	}
	// An oversized SMP: a 1 KiB payload puts a long run after the edit.
	long := make([]byte, packet.MTU)
	copy(long, out[:])
	f.Add(long, uint8(topology.PortWest), false, false)
	target := newSMP(smpMethodSet, smpAttrSetRoute, 5, discMKey, nil)
	f.Add(target[:], uint8(topology.PortHCA), false, false)
	bad := newSMP(smpMethodGet, smpAttrNodeInfo, 6, discMKey, []byte{1})
	bad[smpOffHopCnt] = 200
	f.Add(bad[:], uint8(1), false, false)
	f.Add(bad[:smpHeaderSize+2], uint8(1), true, false)

	f.Fuzz(func(t *testing.T, pl []byte, inPort uint8, reparsed, tainted bool) {
		if len(pl) > packet.MTU {
			return
		}
		s := sim.New()
		mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 3, 1)
		sw := mesh.Switches[1]
		agent := AttachSwitchAgents(mesh, discMKey)[1]

		d := sw.Params().NewMAD(1, packet.LIDPermissive, pl)
		if reparsed {
			var q packet.Packet
			if err := q.Unmarshal(d.Pkt.Marshal()); err != nil {
				t.Fatal(err)
			}
			d.Pkt = &q
		}
		d.Tainted = tainted
		if owns := len(pl) > 0 && &d.Pkt.Image()[d.Pkt.HeaderSize()] == &d.Pkt.Payload[0]; owns == reparsed && len(pl) > 0 {
			t.Fatalf("payload is a window into the packet's image: %v, reparsed: %v", owns, reparsed)
		}
		want := append([]byte(nil), pl...)
		fr, err := parseSMP(pl)
		consumed := agent.HandleMAD(sw, int(inPort), d)
		switch {
		case !isDRSMP(d):
			if consumed {
				t.Fatal("consumed a MAD that is not a directed-route SMP")
			}
			return
		case err != nil:
			if !consumed || sw.Counters.Value(fabric.SwSMPMalformed) != 1 {
				t.Fatalf("malformed SMP: consumed %v, smp_malformed %d", consumed, sw.Counters.Value(fabric.SwSMPMalformed))
			}
			return
		case !consumed:
			t.Fatal("a well-formed SMP fell through to LID routing")
		case fr.Dir == 0 && fr.HopPtr < fr.HopCnt:
			want[smpOffRet+fr.HopPtr] = inPort
			want[smpOffHopPtr]++
		case fr.Dir != 0 && fr.HopPtr > 0:
			want[smpOffHopPtr]--
		default:
			return // executed here or misrouted: nothing was forwarded
		}

		if !bytes.Equal(d.Pkt.Payload, want) {
			t.Fatalf("forwarded payload\n got  %x\n want %x", d.Pkt.Payload, want)
		}
		wantPatched := 1
		if reparsed || tainted {
			wantPatched = 0
		}
		if patched, sealed := agent.TransitReseals(); patched != wantPatched || patched+sealed != 1 {
			t.Fatalf("reparsed %v, tainted %v: %d patched, %d sealed whole; want %d patched of 1", reparsed, tainted, patched, sealed, wantPatched)
		}
		deth := *d.Pkt.DETH
		fresh := &packet.Packet{LRH: d.Pkt.LRH, BTH: d.Pkt.BTH, DETH: &deth, Payload: want}
		if err := icrc.Seal(fresh); err != nil {
			t.Fatal(err)
		}
		wire := d.Pkt.Wire()
		if !bytes.Equal(wire, fresh.Marshal()) {
			t.Fatalf("resealed image differs from a fresh seal\n got  %x\n want %x", wire, fresh.Marshal())
		}
		if d.Pkt.ICRC != fresh.ICRC || d.Pkt.VCRC != fresh.VCRC {
			t.Fatalf("CRC fields %08x/%04x, fresh %08x/%04x", d.Pkt.ICRC, d.Pkt.VCRC, fresh.ICRC, fresh.VCRC)
		}
		if ok, err := icrc.VerifyICRC(wire); err != nil || !ok {
			t.Fatalf("VerifyICRC: %v %v", ok, err)
		}
		if ok, err := icrc.VerifyVCRC(wire); err != nil || !ok {
			t.Fatalf("VerifyVCRC: %v %v", ok, err)
		}
	})
}
