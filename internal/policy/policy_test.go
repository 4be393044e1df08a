package policy

import (
	"reflect"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

// testDoc is a representative document over a 4-node subnet: two
// partitions sharing node 2, under SIF with one key pinned invalid at
// every switch.
func testDoc() *Document {
	return &Document{
		Version: 1,
		Mode:    enforce.SIF,
		Rules: []Rule{
			{Name: "compute", Base: 0x0001, Full: []PortRange{{0, 2}}},
			{Name: "storage", Base: 0x0002, Full: []PortRange{{2, 3}, {3, 3}}},
		},
		Pinned: []uint16{0x0FFF},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Document)
	}{
		{"bad version", func(d *Document) { d.Version = 2 }},
		{"unknown mode", func(d *Document) { d.Mode = enforce.SIF + 1 }},
		{"no rules", func(d *Document) { d.Rules = nil }},
		{"empty rule name", func(d *Document) { d.Rules[0].Name = "" }},
		{"duplicate rule name", func(d *Document) { d.Rules[1].Name = d.Rules[0].Name }},
		{"zero base", func(d *Document) { d.Rules[0].Base = 0 }},
		{"membership-bit base", func(d *Document) { d.Rules[0].Base = 0x8001 }},
		{"duplicate base", func(d *Document) { d.Rules[1].Base = d.Rules[0].Base }},
		{"range out of bounds", func(d *Document) { d.Rules[0].Full = []PortRange{{0, 4}} }},
		{"inverted range", func(d *Document) { d.Rules[0].Full = []PortRange{{2, 1}} }},
		{"memberless rule", func(d *Document) { d.Rules[0].Full = nil }},
		{"pin without SIF", func(d *Document) { d.Mode = enforce.IF }},
		{"pin collides with partition", func(d *Document) { d.Pinned[0] = 0x0001 }},
		{"membership-bit pin", func(d *Document) { d.Pinned[0] = 0x8FFF }},
	}
	for _, tc := range cases {
		doc := testDoc()
		tc.mutate(doc)
		if err := doc.Validate(4); err == nil {
			t.Errorf("%s: Validate accepted a bad document", tc.name)
		}
	}
	if err := testDoc().Validate(4); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestCompileIntent(t *testing.T) {
	intent, err := Compile(testDoc(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(intent.Partitions) != 2 {
		t.Fatalf("got %d partitions, want 2", len(intent.Partitions))
	}
	storage := intent.Partitions[1]
	if storage.Base != 0x0002 {
		t.Fatalf("partitions not in base order: %#x", storage.Base)
	}
	// Node 3 is selected twice and listed once.
	if want := []int{2, 3}; !reflect.DeepEqual(storage.Members, want) {
		t.Errorf("storage members = %v, want %v", storage.Members, want)
	}

	// Node 2 is in both partitions; its SIF switch table holds both.
	si2 := intent.Switch(2)
	if want := []uint16{0x8001, 0x8002}; !reflect.DeepEqual(si2.Valid, want) {
		t.Errorf("switch 2 valid = %#x, want %#x", si2.Valid, want)
	}
	if si2.ModelEntries != 2 {
		t.Errorf("switch 2 model entries = %d, want 2", si2.ModelEntries)
	}

	// The pin holds at every switch: each is active from bring-up.
	for _, si := range intent.Switches {
		if want := []uint16{0x0FFF}; !si.Active || !reflect.DeepEqual(si.Invalid, want) {
			t.Errorf("switch %d active=%v invalid=%#x, want active with %#x", si.Switch, si.Active, si.Invalid, want)
		}
	}

	// Determinism: compiling twice yields deep-equal intent.
	again, _ := Compile(testDoc(), 4)
	if !reflect.DeepEqual(intent, again) {
		t.Error("two compilations of the same document differ")
	}
}

// TestCompileDPTCopies holds every DPT switch to the subnet-wide table
// at Table 2's n×p model size, and checks that the SM programs each
// switch its own copy of it, so corrupting one switch's table leaves
// the others alone.
func TestCompileDPTCopies(t *testing.T) {
	doc := testDoc()
	doc.Mode = enforce.DPT
	doc.Pinned = nil
	intent, err := Compile(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 members in compute + 2 in storage = Table 2's n×p model size.
	for _, si := range intent.Switches {
		if want := []uint16{0x8001, 0x8002}; !reflect.DeepEqual(si.Valid, want) {
			t.Fatalf("switch %d DPT table = %#x, want %#x", si.Switch, si.Valid, want)
		}
		if si.ModelEntries != 5 {
			t.Fatalf("switch %d model entries = %d, want 5", si.Switch, si.ModelEntries)
		}
	}

	s := sim.New()
	params := fabric.DefaultParams()
	mesh := topology.NewMesh(s, params, 2, 2)
	filter := enforce.NewFilter(enforce.DPT, params)
	mesh.SetFilterAll(filter)
	if _, err := Program(doc, sm.New(s, mesh, filter, sm.DefaultConfig()), mesh, filter, testMKey); err != nil {
		t.Fatal(err)
	}
	filter.AddValid(mesh.Switches[0], packet.PKey(0x8123))
	for i, sw := range mesh.Switches {
		wv, _ := intent.Switches[i].Digests()
		if got := enforce.Digest16(filter.Snapshot(sw).Valid) == wv; got != (i != 0) {
			t.Errorf("switch %d table matches intent = %v after corrupting switch 0", i, got)
		}
	}
}

// droppedFeatureBlobs are testDoc's blob with one frozen wire field set
// to what a removed feature wrote: a limited member count, a pin at one
// switch, an alternate-source registration and a per-switch mode.
func droppedFeatureBlobs() map[string][]byte {
	blob := Marshal(testDoc())
	n := len(blob) // ... limited u16, nPinned u16, switch i16, base u16, nAlt u16, nModes u16
	set := func(off int, v ...byte) []byte {
		b := append([]byte(nil), blob...)
		copy(b[off:], v)
		return b
	}
	return map[string][]byte{
		"limited members":   set(n-12, 0, 1),
		"per-switch pin":    set(n-8, 0, 3),
		"alternate sources": set(n-4, 0, 1),
		"per-switch modes":  set(n-2, 0, 1),
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	doc := testDoc()
	blob := Marshal(doc)
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, doc)
	}
	if !reflect.DeepEqual(blob, Marshal(doc)) {
		t.Error("marshalling is not deterministic")
	}
	// Every truncation must fail cleanly, never panic.
	for i := 0; i < len(blob); i++ {
		if _, err := Unmarshal(blob[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	if _, err := Unmarshal(append(blob, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := Unmarshal([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	for name, b := range droppedFeatureBlobs() {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: decoded a blob that declares them", name)
		}
	}
}

func TestProgramInstallsIntent(t *testing.T) {
	s := sim.New()
	params := fabric.DefaultParams()
	mesh := topology.NewMesh(s, params, 2, 2)
	filter := enforce.NewFilter(enforce.SIF, params)
	mesh.SetFilterAll(filter)
	manager := sm.New(s, mesh, filter, sm.DefaultConfig())

	doc := testDoc()
	if _, err := Program(doc, manager, mesh, enforce.NewFilter(enforce.IF, params), testMKey); err == nil {
		t.Fatal("Program accepted a filter running another mode")
	}
	intent, err := Program(doc, manager, mesh, filter, testMKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(manager.SyncState(Magic)) == 0 {
		t.Fatal("Program left no policy blob on the SM")
	}

	// HCA tables: node 0 is in compute, not in storage.
	if !mesh.HCA(0).PKeyTable.Check(packet.PKey(0x8001)) {
		t.Error("node 0 rejects its own partition compute")
	}
	if mesh.HCA(0).PKeyTable.Check(packet.PKey(0x8002)) {
		t.Error("node 0 accepts storage, which it is not in")
	}

	// Switch state matches compiled intent exactly.
	for i := range intent.Switches {
		si := &intent.Switches[i]
		snap := filter.Snapshot(mesh.Switches[si.Switch])
		wv, wi := si.Digests()
		if enforce.Digest16(snap.Valid) != wv {
			t.Errorf("switch %d valid table differs from intent", si.Switch)
		}
		if enforce.Digest16(snap.Invalid) != wi {
			t.Errorf("switch %d invalid table differs from intent", si.Switch)
		}
		if snap.Mode != intent.Mode || snap.Active != si.Active {
			t.Errorf("switch %d mode/active = %v/%v, want %v/%v",
				si.Switch, snap.Mode, snap.Active, intent.Mode, si.Active)
		}
	}

	// The SM's own view registered the partitions (HA sync, rotation).
	if got := manager.PartitionBases(); !reflect.DeepEqual(got, []uint16{1, 2}) {
		t.Errorf("SM partition bases = %v", got)
	}

	// Reprogramming from the SM's membership restores corrupted state
	// wholesale.
	sw := mesh.Switches[2]
	filter.RemoveValid(sw, packet.PKey(0x8001))
	manager.ProgramSwitchTables()
	wv, _ := intent.Switch(2).Digests()
	if enforce.Digest16(filter.Snapshot(sw).Valid) != wv {
		t.Error("ProgramSwitchTables did not restore the compiled table")
	}

	// Round-tripping the blob recompiles to the same intent (what a
	// promoted standby does with the synced document).
	back, err := Unmarshal(manager.SyncState(Magic))
	if err != nil {
		t.Fatal(err)
	}
	reIntent, err := Compile(back, mesh.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(intent, reIntent) {
		t.Error("intent recompiled from the synced blob differs")
	}
}

// scaledDoc is a policy of paper-testbed shape scaled up: 64 nodes, 16
// partitions.
func scaledDoc(tb testing.TB) *Document {
	doc := &Document{Version: 1, Mode: enforce.SIF}
	for p := 0; p < 16; p++ {
		doc.Rules = append(doc.Rules, Rule{
			Name: string(rune('a'+p)) + "-part",
			Base: uint16(p + 1),
			Full: []PortRange{{First: (p * 4) % 64, Last: (p*4)%64 + 3}},
		})
	}
	doc.Pinned = []uint16{0x0FFF}
	if err := doc.Validate(64); err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestCompileAllocBudget holds compiling scaledDoc to the 63
// allocations measured under Go 1.24 plus 25%; validation builds maps,
// whose allocation counts differ between Go releases. The switch
// tables are windows of one slab, so one allocation per switch more
// exceeds the headroom.
func TestCompileAllocBudget(t *testing.T) {
	doc := scaledDoc(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Compile(doc, 64); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 63 * 1.25
	if allocs > ceiling {
		t.Fatalf("Compile allocated %.0f times, ceiling %.0f", allocs, ceiling)
	}
}

func BenchmarkCompile(b *testing.B) {
	doc := scaledDoc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(doc, 64); err != nil {
			b.Fatal(err)
		}
	}
}
