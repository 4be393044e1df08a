package policy

import (
	"reflect"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

// testDoc is a representative document over a 4-node subnet: two
// partitions (one with a limited member), an IF-wide fabric with one
// SIF switch carrying a pinned invalid key and an alt-source
// registration.
func testDoc() *Document {
	return &Document{
		Version: 1,
		Mode:    enforce.IF,
		Rules: []Rule{
			{Name: "compute", Base: 0x0001, Full: []PortRange{{0, 2}}},
			{Name: "storage", Base: 0x0002, Full: []PortRange{{2, 3}}, Limited: []PortRange{{0, 0}}},
		},
		Pinned:      []PinnedInvalid{{Switch: 3, Base: 0x0FFF}},
		AltSources:  []AltSourceReg{{Switch: 1, Src: 9}},
		SwitchModes: []SwitchMode{{Switch: 3, Mode: enforce.SIF}},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Document)
	}{
		{"bad version", func(d *Document) { d.Version = 2 }},
		{"no rules", func(d *Document) { d.Rules = nil }},
		{"empty rule name", func(d *Document) { d.Rules[0].Name = "" }},
		{"duplicate rule name", func(d *Document) { d.Rules[1].Name = d.Rules[0].Name }},
		{"zero base", func(d *Document) { d.Rules[0].Base = 0 }},
		{"membership-bit base", func(d *Document) { d.Rules[0].Base = 0x8001 }},
		{"duplicate base", func(d *Document) { d.Rules[1].Base = d.Rules[0].Base }},
		{"range out of bounds", func(d *Document) { d.Rules[0].Full = []PortRange{{0, 4}} }},
		{"inverted range", func(d *Document) { d.Rules[0].Full = []PortRange{{2, 1}} }},
		{"memberless rule", func(d *Document) { d.Rules[0].Full, d.Rules[0].Limited = nil, nil }},
		{"override out of range", func(d *Document) { d.SwitchModes[0].Switch = 4 }},
		{"duplicate override", func(d *Document) {
			d.SwitchModes = append(d.SwitchModes, SwitchMode{Switch: 3, Mode: enforce.IF})
		}},
		{"pin at non-SIF switch", func(d *Document) { d.Pinned[0].Switch = 1 }},
		{"pin collides with partition", func(d *Document) { d.Pinned[0].Base = 0x0001 }},
		{"pin with no SIF anywhere", func(d *Document) {
			d.SwitchModes = nil
			d.Pinned[0].Switch = -1
		}},
		{"alt source LID zero", func(d *Document) { d.AltSources[0].Src = 0 }},
		{"alt source switch out of range", func(d *Document) { d.AltSources[0].Switch = -1 }},
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
	wantMembers := []PartitionMember{{Node: 0, Full: false}, {Node: 2, Full: true}, {Node: 3, Full: true}}
	if !reflect.DeepEqual(storage.Members, wantMembers) {
		t.Errorf("storage members = %+v, want %+v", storage.Members, wantMembers)
	}

	// Node 2 is in both partitions; its IF switch table holds both.
	si2 := intent.Switch(2)
	if want := []uint16{0x8001, 0x8002}; !reflect.DeepEqual(si2.Valid, want) {
		t.Errorf("switch 2 valid = %#x, want %#x", si2.Valid, want)
	}
	if si2.Mode != enforce.IF || si2.ModelEntries != 2 {
		t.Errorf("switch 2 mode/model = %v/%d", si2.Mode, si2.ModelEntries)
	}

	// Switch 3 is the SIF override with the pin: active from bring-up.
	si3 := intent.Switch(3)
	if si3.Mode != enforce.SIF || !si3.Active {
		t.Errorf("switch 3 mode=%v active=%v, want SIF active", si3.Mode, si3.Active)
	}
	if want := []uint16{0x0FFF}; !reflect.DeepEqual(si3.Invalid, want) {
		t.Errorf("switch 3 invalid = %#x, want %#x", si3.Invalid, want)
	}
	if si1 := intent.Switch(1); !reflect.DeepEqual(si1.AltSources, []uint16{9}) {
		t.Errorf("switch 1 alt sources = %v", si1.AltSources)
	}

	// Determinism: compiling twice yields deep-equal intent.
	again, _ := Compile(testDoc(), 4)
	if !reflect.DeepEqual(intent, again) {
		t.Error("two compilations of the same document differ")
	}
}

func TestCompileDPTCopies(t *testing.T) {
	doc := testDoc()
	doc.Mode = enforce.DPT
	doc.SwitchModes = nil
	doc.Pinned = nil
	intent, err := Compile(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 members in compute + 3 in storage = Table 2's n×p model size.
	for _, si := range intent.Switches {
		if want := []uint16{0x8001, 0x8002}; !reflect.DeepEqual(si.Valid, want) {
			t.Fatalf("switch %d DPT table = %#x, want %#x", si.Switch, si.Valid, want)
		}
		if si.ModelEntries != 6 {
			t.Fatalf("switch %d model entries = %d, want 6", si.Switch, si.ModelEntries)
		}
	}
	// The copies must be distinct slices: corrupting one switch's table
	// must not alias the others.
	intent.Switches[0].Valid[0] = 0xDEAD
	if intent.Switches[1].Valid[0] == 0xDEAD {
		t.Error("DPT switch tables alias one another")
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
}

func TestProgramInstallsIntent(t *testing.T) {
	s := sim.New()
	params := fabric.DefaultParams()
	mesh := topology.NewMesh(s, params, 2, 2)
	filter := enforce.NewFilter(enforce.IF, params)
	mesh.SetFilterAll(filter)
	mkey := keys.MKey(0x5EC0DE0FDEADBEEF)
	cfg := sm.DefaultConfig()
	manager := sm.New(s, mesh, filter, cfg)

	doc := testDoc()
	intent, err := Program(doc, manager, mesh, filter, mkey)
	if err != nil {
		t.Fatal(err)
	}
	if len(manager.SyncState(Magic)) == 0 || manager.ProgramTables == nil {
		t.Fatal("Program left no policy blob or reprogram hook on the SM")
	}

	// HCA tables: node 0 is full in compute, limited in storage.
	if !mesh.HCA(0).PKeyTable.Check(packet.PKey(0x8001)) {
		t.Error("node 0 rejects full-member traffic in compute")
	}
	// Limited vs limited must fail; limited vs full must pass (10.9.3).
	if mesh.HCA(0).PKeyTable.Check(packet.PKey(0x0002)) {
		t.Error("two limited members can talk in storage")
	}
	if !mesh.HCA(0).PKeyTable.Check(packet.PKey(0x8002)) {
		t.Error("limited member rejects a full member in storage")
	}

	// Switch state matches compiled intent exactly.
	for i := range intent.Switches {
		si := &intent.Switches[i]
		snap := filter.Snapshot(mesh.Switches[si.Switch])
		wv, wi, wa := si.Digests()
		if enforce.Digest16(snap.Valid) != wv {
			t.Errorf("switch %d valid table differs from intent", si.Switch)
		}
		if enforce.Digest16(snap.Invalid) != wi {
			t.Errorf("switch %d invalid table differs from intent", si.Switch)
		}
		if enforce.Digest16(snap.AltSources) != wa {
			t.Errorf("switch %d alt sources differ from intent", si.Switch)
		}
		if snap.Mode != si.Mode || snap.Active != si.Active {
			t.Errorf("switch %d mode/active = %v/%v, want %v/%v",
				si.Switch, snap.Mode, snap.Active, si.Mode, si.Active)
		}
	}

	// The SM's own view registered the partitions (HA sync, rotation).
	if got := manager.PartitionBases(); !reflect.DeepEqual(got, []uint16{1, 2}) {
		t.Errorf("SM partition bases = %v", got)
	}

	// The reprogram hook restores corrupted state wholesale.
	sw := mesh.Switches[2]
	filter.RemoveValid(sw, packet.PKey(0x8001))
	manager.ProgramSwitchTables() // delegates to the policy hook
	snap := filter.Snapshot(sw)
	wv, _, _ := intent.Switch(2).Digests()
	if enforce.Digest16(snap.Valid) != wv {
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
	doc.Pinned = []PinnedInvalid{{Switch: -1, Base: 0x0FFF}}
	if err := doc.Validate(64); err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestCompileAllocBudget holds compiling scaledDoc to the 459
// allocations measured under Go 1.24 plus 25%; the compiler builds
// maps, whose allocation counts differ between Go releases.
func TestCompileAllocBudget(t *testing.T) {
	doc := scaledDoc(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Compile(doc, 64); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 459 * 1.25
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
