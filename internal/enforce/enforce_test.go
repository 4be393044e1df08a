package enforce

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

const (
	goodPKey = packet.PKey(0x8001)
	badPKey  = packet.PKey(0x7777)
)

// rig is a two-HCA, one-switch fixture with the filter installed.
type rig struct {
	s         *sim.Simulator
	a, b      *fabric.HCA
	sw        *fabric.Switch
	f         *Filter
	delivered int
}

func newRig(t *testing.T, mode Mode) *rig {
	t.Helper()
	params := fabric.DefaultParams()
	s := sim.New()
	sw := fabric.NewSwitch(s, params, "sw", 5)
	a := fabric.NewHCA(s, params, "A", 1)
	b := fabric.NewHCA(s, params, "B", 2)
	fabric.Connect(s, params, a, 0, sw, 0)
	fabric.Connect(s, params, b, 0, sw, 1)
	sw.MarkIngress(0)
	sw.MarkIngress(1)
	sw.SetRoute(1, 0)
	sw.SetRoute(2, 1)
	a.PKeyTable.Add(goodPKey)
	b.PKeyTable.Add(goodPKey)

	f := NewFilter(mode, params)
	tbl := keys.NewPartitionTable(0)
	tbl.Add(goodPKey)
	f.SetSwitchTable(sw, tbl, 0)
	sw.SetFilter(f)

	r := &rig{s: s, a: a, b: b, sw: sw, f: f}
	b.OnDeliver = func(d *fabric.Delivery) { r.delivered++ }
	return r
}

func (r *rig) send(pk packet.PKey, attack bool) {
	p := &packet.Packet{
		LRH:  packet.LRH{SLID: 1, DLID: 2},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1},
		DETH: &packet.DETH{QKey: 1, SrcQP: 1},
	}
	p.Payload = make([]byte, 64)
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	r.a.Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort, Attack: attack})
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{NoFiltering: "NoFiltering", DPT: "DPT", IF: "IF", SIF: "SIF"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestNoFilteringPassesEverything(t *testing.T) {
	r := newRig(t, NoFiltering)
	r.send(goodPKey, false)
	r.send(badPKey, true)
	r.s.Run()
	// Invalid packet crosses the fabric (DoS reaches the victim) and is
	// dropped only at the destination HCA.
	if r.delivered != 1 {
		t.Fatalf("delivered = %d", r.delivered)
	}
	if r.b.PKeyViolations() != 1 {
		t.Fatalf("HCA violations = %d: invalid packet did not reach victim", r.b.PKeyViolations())
	}
	if r.f.Lookups != 0 || r.f.Dropped != 0 {
		t.Fatal("NoFiltering performed lookups")
	}
}

func TestDPTFiltersAtSwitch(t *testing.T) {
	r := newRig(t, DPT)
	r.send(goodPKey, false)
	r.send(badPKey, true)
	r.s.Run()
	if r.delivered != 1 {
		t.Fatalf("delivered = %d", r.delivered)
	}
	if r.b.PKeyViolations() != 0 {
		t.Fatal("invalid packet reached the victim under DPT")
	}
	if r.f.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.f.Dropped)
	}
	// DPT looks up every packet.
	if r.f.Lookups != 2 {
		t.Fatalf("Lookups = %d, want 2", r.f.Lookups)
	}
}

func TestIFFiltersAtIngressOnly(t *testing.T) {
	r := newRig(t, IF)
	r.send(badPKey, true)
	r.send(goodPKey, false)
	r.s.Run()
	if r.delivered != 1 || r.f.Dropped != 1 {
		t.Fatalf("delivered=%d dropped=%d", r.delivered, r.f.Dropped)
	}
	if r.b.PKeyViolations() != 0 {
		t.Fatal("invalid packet escaped ingress filtering")
	}
}

func TestIFSkipsNonIngressPorts(t *testing.T) {
	params := fabric.DefaultParams()
	s := sim.New()
	// a -> sw1 -> sw2 -> b; sw2's inter-switch port is not ingress.
	sw1 := fabric.NewSwitch(s, params, "sw1", 5)
	sw2 := fabric.NewSwitch(s, params, "sw2", 5)
	a := fabric.NewHCA(s, params, "A", 1)
	b := fabric.NewHCA(s, params, "B", 2)
	fabric.Connect(s, params, a, 0, sw1, 0)
	fabric.Connect(s, params, sw1, 1, sw2, 1)
	fabric.Connect(s, params, b, 0, sw2, 0)
	sw1.MarkIngress(0)
	sw2.MarkIngress(0)
	for lid, routes := range map[packet.LID][2]int{1: {0, 1}, 2: {1, 0}} {
		sw1.SetRoute(lid, routes[0])
		sw2.SetRoute(lid, routes[1])
	}
	b.PKeyTable.Add(goodPKey)

	f := NewFilter(IF, params)
	tbl := keys.NewPartitionTable(0)
	tbl.Add(goodPKey)
	f.SetSwitchTable(sw1, tbl, 0)
	f.SetSwitchTable(sw2, tbl, 0)
	sw1.SetFilter(f)
	sw2.SetFilter(f)

	n := 0
	b.OnDeliver = func(d *fabric.Delivery) { n++ }
	p := &packet.Packet{
		LRH:  packet.LRH{SLID: 1, DLID: 2},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: goodPKey, DestQP: 1},
		DETH: &packet.DETH{QKey: 1, SrcQP: 1},
	}
	p.Payload = make([]byte, 64)
	icrc.Seal(p)
	a.Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	s.Run()
	if n != 1 {
		t.Fatal("delivery failed")
	}
	// One lookup at sw1's ingress; none at sw2 (transit port).
	if f.Lookups != 1 {
		t.Fatalf("Lookups = %d, want 1", f.Lookups)
	}
}

func TestSIFInactiveUntilRegistered(t *testing.T) {
	r := newRig(t, SIF)
	r.send(badPKey, true)
	r.s.Run()
	// Not yet active: the attack packet sails through to the victim.
	if r.b.PKeyViolations() != 1 {
		t.Fatal("SIF filtered before activation")
	}
	if r.f.Lookups != 0 {
		t.Fatalf("inactive SIF performed %d lookups", r.f.Lookups)
	}

	// SM registers the invalid key at the ingress switch.
	r.f.RegisterInvalid(r.sw, badPKey)
	if !r.f.Active(r.sw) {
		t.Fatal("not active after registration")
	}
	r.send(badPKey, true)
	r.send(goodPKey, false)
	r.s.Run()
	if r.f.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.f.Dropped)
	}
	if r.delivered != 1 {
		t.Fatalf("delivered = %d (legit traffic must pass)", r.delivered)
	}
	if r.f.Violations(r.sw) != 1 {
		t.Fatalf("violation counter = %d", r.f.Violations(r.sw))
	}
	if r.f.Activations != 1 {
		t.Fatalf("Activations = %d", r.f.Activations)
	}
}

func TestSIFAutoDisable(t *testing.T) {
	r := newRig(t, SIF)
	cancel := r.f.StartAutoDisable(r.s, 100*sim.Microsecond)
	r.f.RegisterInvalid(r.sw, badPKey)
	r.send(badPKey, true) // keeps the counter advancing in window 1
	// After two idle periods the filter must disarm itself.
	r.s.RunUntil(350 * sim.Microsecond)
	if r.f.Active(r.sw) {
		t.Fatal("SIF still active after idle periods")
	}
	// And traffic with that P_Key flows again (to be re-trapped by HCAs).
	cancel() // stop the periodic timer so Run drains
	r.send(badPKey, true)
	r.s.Run()
	if r.b.PKeyViolations() != 1 {
		t.Fatalf("HCA violations = %d, want 1 after auto-disable", r.b.PKeyViolations())
	}
}

// When the attacker cycles through more P_Keys than the partition table
// holds, SIF must fall back to positive filtering instead of growing its
// invalid table without bound.
func TestSIFInvalidTableCap(t *testing.T) {
	r := newRig(t, SIF)
	// Valid table has 1 entry, so the invalid table caps at 1.
	r.f.RegisterInvalid(r.sw, packet.PKey(0x1000))
	r.f.RegisterInvalid(r.sw, packet.PKey(0x1001))
	r.f.RegisterInvalid(r.sw, packet.PKey(0x1002))

	// In fallback mode, any non-member P_Key is dropped, even one never
	// registered.
	r.send(packet.PKey(0x2FFF), true)
	r.send(goodPKey, false)
	r.s.Run()
	if r.f.Dropped != 1 {
		t.Fatalf("Dropped = %d: fallback positive filtering not engaged", r.f.Dropped)
	}
	if r.delivered != 1 {
		t.Fatalf("delivered = %d", r.delivered)
	}
}

func TestManagementBypassesEnforcement(t *testing.T) {
	r := newRig(t, DPT)
	p := &packet.Packet{
		LRH:  packet.LRH{SLID: 1, DLID: 2, VL: fabric.VLManagement},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0xFFFF, DestQP: 0},
		DETH: &packet.DETH{QKey: 0, SrcQP: 0},
	}
	icrc.Seal(p)
	r.a.Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassManagement, VL: fabric.VLManagement})
	r.s.Run()
	if r.delivered != 1 {
		t.Fatal("management packet filtered")
	}
	if r.f.Lookups != 0 {
		t.Fatal("management packet charged a lookup")
	}
}

func TestRegisterInvalidIgnoredOutsideSIF(t *testing.T) {
	r := newRig(t, IF)
	r.f.RegisterInvalid(r.sw, badPKey)
	if r.f.Active(r.sw) {
		t.Fatal("IF mode activated SIF state")
	}
}

// TestSIFAltPathSourceCheck pins the migrated-path check: a packet
// addressed at or above the alternate base from a source no registration
// names is dropped, counted as an alternate-path drop, and charged a scan
// of the switch's registrations plus one; a registered source falls
// through to the ordinary SIF ingress check.
func TestSIFAltPathSourceCheck(t *testing.T) {
	const base = packet.LID(0x100)
	r := newRig(t, SIF)
	r.f.EnableAltPathEnforcement(base)
	r.f.RegisterAltSource(r.sw, 1)
	r.f.RegisterAltSource(r.sw, 3)
	r.f.RegisterInvalid(r.sw, badPKey) // arms the ordinary check
	inspect := func(slid packet.LID, pk packet.PKey) (bool, sim.Time) {
		p := &packet.Packet{LRH: packet.LRH{SLID: slid, DLID: base}, BTH: packet.BTH{PKey: pk}}
		return r.f.Inspect(r.sw, 0, true, &fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort})
	}
	cycles := func(entries float64) sim.Time { return sim.Time(LinearLookup(entries)) * r.f.params.ClockCycle }

	if drop, delay := inspect(2, goodPKey); !drop || delay != cycles(3) {
		t.Fatalf("unregistered source: drop=%v delay=%v, want a drop charged %v", drop, delay, cycles(3))
	}
	if r.f.Dropped != 1 || r.f.AltDropped != 1 {
		t.Fatalf("Dropped=%d AltDropped=%d, want 1 and 1", r.f.Dropped, r.f.AltDropped)
	}
	if drop, delay := inspect(3, goodPKey); drop || delay != cycles(1) {
		t.Fatalf("registered source, valid key: drop=%v delay=%v, want a pass charged the invalid table's %v", drop, delay, cycles(1))
	}
	if drop, _ := inspect(1, badPKey); !drop || r.f.Violations(r.sw) != 1 {
		t.Fatalf("registered source, invalid key: drop=%v violations=%d, want the SIF ingress drop", drop, r.f.Violations(r.sw))
	}
	if r.f.Dropped != 2 || r.f.AltDropped != 1 {
		t.Fatalf("Dropped=%d AltDropped=%d, want 2 and 1", r.f.Dropped, r.f.AltDropped)
	}
}

// TestSnapshotMatchesReference drives one SIF switch through random
// RegisterInvalid, ClearInvalid, RegisterAltSource and auto-disable
// steps, mirrored in maps, and after every step requires Snapshot to
// equal the maps read back in ascending order: the tables are kept in
// the order the audit digests them, with the invalid table capped at
// the valid table's size.
func TestSnapshotMatchesReference(t *testing.T) {
	const period = 10 * sim.Microsecond
	for seed := int64(1); seed <= 20; seed++ {
		r := newRig(t, SIF)
		for _, k := range []packet.PKey{0x8002, 0x8003, 0x8004} {
			r.f.AddValid(r.sw, k) // the valid table holds 4: the invalid table's cap
		}
		r.f.StartAutoDisable(r.s, period)
		rng := rand.New(rand.NewSource(seed))
		invalid, alt, active := map[uint16]bool{}, map[packet.LID]bool{}, false
		for step := 0; step < 200; step++ {
			v := uint16(rng.Intn(12))
			switch rng.Intn(4) {
			case 0:
				r.f.RegisterInvalid(r.sw, packet.PKey(0x7000|v))
				if len(invalid) < 4 {
					invalid[0x7000|v] = true
				}
				active = true
			case 1:
				r.f.ClearInvalid(r.sw)
				clear(invalid)
			case 2:
				r.f.RegisterAltSource(r.sw, packet.LID(v))
				alt[packet.LID(v)] = true
			case 3:
				// No traffic, so the violation counter never advances: the
				// next check disables an active switch and clears its table.
				r.s.RunUntil(r.s.Now() + period)
				if active {
					active = false
					clear(invalid)
				}
			}
			snap := r.f.Snapshot(r.sw)
			if want := sortedKeys(invalid); !slices.Equal(snap.Invalid, want) {
				t.Fatalf("seed %d step %d: invalid table %#x, want %#x", seed, step, snap.Invalid, want)
			}
			if want := sortedKeys(alt); !slices.Equal(snap.AltSources, want) {
				t.Fatalf("seed %d step %d: alternate sources %v, want %v", seed, step, snap.AltSources, want)
			}
			if snap.Active != active || r.f.Active(r.sw) != active {
				t.Fatalf("seed %d step %d: active %v, want %v", seed, step, snap.Active, active)
			}
			if want := []packet.PKey{0x8001, 0x8002, 0x8003, 0x8004}; !slices.Equal(snap.Valid, want) {
				t.Fatalf("seed %d step %d: valid table %#x, want %#x", seed, step, snap.Valid, want)
			}
		}
	}
}

// sortedKeys reads a reference set back in ascending order.
func sortedKeys[T ~uint16](set map[T]bool) []T {
	out := make([]T, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// ---- Table 2 cost model ----

func TestCostModelFormulas(t *testing.T) {
	c := CostModel{N: 16, S: 16, P: 4, PrAttack: 0.01, AvgInvalid: 2}

	if got := c.MemoryPerSwitch(DPT); got != 64 {
		t.Fatalf("DPT mem/switch = %v, want n*p = 64", got)
	}
	if got := c.MemoryAllSwitches(DPT); got != 1024 {
		t.Fatalf("DPT mem all = %v, want n*p*s = 1024", got)
	}
	if got := c.MemoryPerSwitch(IF); got != 4 {
		t.Fatalf("IF mem/switch = %v, want p", got)
	}
	if got := c.MemoryAllSwitches(IF); got != 64 {
		t.Fatalf("IF mem all = %v, want p*n", got)
	}
	wantSIF := 4 + 0.01*math.Min(2, 4)
	if got := c.MemoryPerSwitch(SIF); math.Abs(got-wantSIF) > 1e-12 {
		t.Fatalf("SIF mem/switch = %v, want %v", got, wantSIF)
	}
	if got := c.MemoryAllSwitches(SIF); math.Abs(got-(4*16+0.01*2*16)) > 1e-12 {
		t.Fatalf("SIF mem all = %v", got)
	}

	if got := c.LookupsPerPacket(DPT, LinearLookup); got != 64 {
		t.Fatalf("DPT lookups = %v, want f(n*p)", got)
	}
	if got := c.LookupsPerPacket(IF, LinearLookup); got != 4 {
		t.Fatalf("IF lookups = %v, want f(p)", got)
	}
	if got := c.LookupsPerPacket(SIF, LinearLookup); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("SIF lookups = %v, want Pr*f(min(Avg,p))", got)
	}
	if got := c.LookupsPerPacket(NoFiltering, LinearLookup); got != 0 {
		t.Fatalf("NoFiltering lookups = %v", got)
	}
}

// The paper's qualitative ordering: DPT costs the most in both memory and
// lookups; SIF's per-packet cost is far below IF's when attacks are rare.
func TestCostModelOrdering(t *testing.T) {
	c := CostModel{N: 64, S: 64, P: 8, PrAttack: 0.01, AvgInvalid: 4}
	for _, f := range []LookupCost{LinearLookup, ConstantLookup} {
		dpt := c.LookupsPerPacket(DPT, f)
		ifl := c.LookupsPerPacket(IF, f)
		sif := c.LookupsPerPacket(SIF, f)
		if !(dpt >= ifl && ifl > sif) {
			t.Fatalf("lookup ordering violated: DPT=%v IF=%v SIF=%v", dpt, ifl, sif)
		}
	}
	if !(c.MemoryAllSwitches(DPT) > c.MemoryAllSwitches(SIF) &&
		c.MemoryAllSwitches(SIF) > c.MemoryAllSwitches(IF)) {
		t.Fatal("memory ordering violated")
	}
}

func TestConstantLookup(t *testing.T) {
	if ConstantLookup(0) != 0 || ConstantLookup(5000) != 1 {
		t.Fatal("ConstantLookup broken")
	}
}
