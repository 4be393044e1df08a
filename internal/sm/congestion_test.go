package sm

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

func testCCParams() fabric.CCParams {
	return fabric.CCParams{
		MarkingThreshold: 6,
		CCTSize:          16,
		CCTStep:          2 * sim.Microsecond,
		CCTDecay:         20 * sim.Microsecond,
	}
}

func TestCCBlobRoundTrip(t *testing.T) {
	cc := testCCParams()
	blob := EncodeCCBlob(cc)
	if string(blob[:syncMagicSize]) != CCMagic {
		t.Fatal("encoded blob does not open with the plane's magic")
	}
	got, err := ParseCCBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != cc {
		t.Fatalf("round trip changed the configuration: got %+v want %+v", got, cc)
	}

	if _, err := ParseCCBlob([]byte("IBPLnot-congestion-control!!!")); err == nil {
		t.Error("accepted a policy-magic blob")
	}
	if _, err := ParseCCBlob(blob[:ccBlobSize-3]); err == nil {
		t.Error("accepted a truncated blob")
	}
	if _, err := ParseCCBlob(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("accepted an over-long blob")
	}
	bad := append([]byte(nil), blob...)
	bad[4] = ccBlobVersion + 1
	if _, err := ParseCCBlob(bad); err == nil {
		t.Error("accepted an unknown version")
	}
}

// TestStateSyncCarriesCCBlob covers the HA state-sync trailers with 0,
// 1, 2 and 3 blobs attached: the encoding must equal the wire image
// captured before the three named trailer fields became one ordered
// list (so old and new masters interoperate), every blob must survive a
// round trip in order, and a standby must file each under the magic that
// opens it — by content, not position — in a copy it owns, not a window
// into the packet. Malformed trailers are rejected.
func TestStateSyncCarriesCCBlob(t *testing.T) {
	base := stateSyncMAD{
		Master:     3,
		DirDigest:  0xDEADBEEF,
		Partitions: []syncPartition{{Base: 0x8001, Epoch: 7, Members: []byte{0, 1, 0, 4, 0, 9}}}, // nodes 1, 4, 9
	}
	policy := []byte("IBPLfake-policy-document")
	cc := EncodeCCBlob(testCCParams())
	health := EncodeHealthBlob([]HealthEntry{{Link: topology.LinkID{Switch: 5, Port: 2}, Flaps: 3, HoldUntil: 40 * sim.Microsecond}})

	const (
		wireBase   = "030003deadbeef00018001000000070003000100040009"
		wirePolicy = "000000184942504c66616b652d706f6c6963792d646f63756d656e74"
		wireCC     = "0000001949424343010006001000000000001e84800000000001312d00"
		wireHealth = "000000144942485101000100050200030000000002625a00"
	)
	for _, tc := range []struct {
		name  string
		blobs [][]byte
		wire  string
	}{
		{"no trailers", nil, wireBase},
		{"health only", [][]byte{health}, wireBase + wireHealth},
		{"policy and cc", [][]byte{policy, cc}, wireBase + wirePolicy + wireCC},
		{"policy, cc and health", [][]byte{policy, cc, health}, wireBase + wirePolicy + wireCC + wireHealth},
	} {
		in := base
		in.Blobs = tc.blobs
		pl := appendStateSync(nil, &in)
		if got := hex.EncodeToString(pl); got != tc.wire {
			t.Errorf("%s: wire image changed:\n got %s\nwant %s", tc.name, got, tc.wire)
		}
		var got stateSyncMAD
		if err := parseStateSync(pl, &got); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Errorf("%s: round trip changed the MAD:\n got %+v\nwant %+v", tc.name, got, in)
		}
		// Adopted in reverse, so position cannot be what files them; the
		// packet is scribbled over afterwards, as a recycled one would be.
		var standby SubnetManager
		for i := len(got.Blobs) - 1; i >= 0; i-- {
			standby.adoptSyncState(got.Blobs[i])
		}
		clear(pl)
		var filed [][]byte
		for _, magic := range []string{"IBPL", CCMagic, HealthMagic} {
			if b := standby.SyncState(magic); b != nil {
				filed = append(filed, b)
			}
		}
		if !reflect.DeepEqual(filed, tc.blobs) {
			t.Errorf("%s: trailers misfiled: %q, want %q", tc.name, filed, tc.blobs)
		}
	}

	whole, err := hex.DecodeString(wireBase + wirePolicy)
	if err != nil {
		t.Fatal(err)
	}
	for name, pl := range map[string][]byte{
		"truncated length prefix":    whole[:len(whole)-len(policy)-2],
		"length past the payload":    whole[:len(whole)-1],
		"zero-length trailer":        append(append([]byte(nil), whole...), 0, 0, 0, 0),
		"trailer shorter than magic": append(append([]byte(nil), whole...), 0, 0, 0, 3, 'I', 'B', 'C'),
		"truncated partition record": whole[:12],
	} {
		if err := parseStateSync(pl, new(stateSyncMAD)); !errors.Is(err, errHAShort) {
			t.Errorf("%s: err = %v, want errHAShort", name, err)
		}
	}
}

// TestSyncStateAllocFree holds the HA sync path to no allocation at all
// once warm: a plane filing a trailer under a magic it already knows, and
// one full beat — the master encoding a heartbeat and a state sync from
// its partition table and three trailers, both delivered to two standbys
// that parse them, check every member and adopt membership and trailers
// in place. A mgmt-planes repetition beats 600 times to two standbys, and
// the run-level allocation ceilings are too loose to see one allocation
// per beat come back. Under the poison build, which never reuses a
// message block, only the adoption is checked: a standby still holding a
// window into a released packet would read the poison.
func TestSyncStateAllocFree(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	blobs := [][]byte{[]byte("IBPLfake-policy-document"), EncodeCCBlob(testCCParams()), EncodeHealthBlob(nil)}
	file := func() {
		for _, b := range blobs {
			r.m.SetSyncState(string(b[:syncMagicSize]), b)
		}
	}
	file()
	if n := testing.AllocsPerRun(100, file); n != 0 {
		t.Errorf("filing three trailers under known magics allocated %.0f times, want 0", n)
	}

	mkey := DefaultConfig().MKey
	var standbys []*SubnetManager
	for _, node := range []int{15, 14} {
		cfg := DefaultConfig()
		cfg.Node = node
		standbys = append(standbys, NewStandby(r.s, r.mesh, nil, cfg))
	}
	c, err := NewCoordinator(r.s, r.mesh, HAConfig{Standbys: 2, Heartbeat: 50 * sim.Microsecond}, mkey, r.m, standbys)
	if err != nil {
		t.Fatal(err)
	}
	// Created after the standbys were seeded, so only the beat brings them.
	for base, members := range map[uint16][]int{2: {1, 2, 14, 15}, 1: {0, 3, 5, 9}} {
		if err := r.m.CreatePartition(mkey, packet.PKey(0x8000|base), members); err != nil {
			t.Fatal(err)
		}
	}
	for _, sb := range standbys {
		node := sb.Node()
		r.mesh.HCA(node).OnDeliver = func(d *fabric.Delivery) { c.Dispatch(node, d) }
	}
	beat := func() {
		c.beatFrom(0)
		r.s.Run()
	}
	beat()
	if !reflect.DeepEqual(c.out.Blobs, blobs) {
		t.Fatalf("the master staged trailers %q, want the three blobs in first-set order", c.out.Blobs)
	}
	for _, sb := range standbys {
		if !reflect.DeepEqual(sb.partitions, r.m.partitions) {
			t.Fatalf("standby on node %d adopted %v, want %v", sb.Node(), sb.partitions, r.m.partitions)
		}
		for _, b := range blobs {
			if got := sb.SyncState(string(b[:syncMagicSize])); !bytes.Equal(got, b) || &got[0] == &b[0] {
				t.Fatalf("standby on node %d filed %q, want its own copy of %q", sb.Node(), got, b)
			}
		}
	}
	if fabric.PoolPoison {
		return
	}
	if n := testing.AllocsPerRun(100, beat); n != 0 {
		t.Errorf("a beat to two standbys allocated %.0f times, want 0", n)
	}
	if got, want := c.Counters.Value(HASyncsAdopted), uint64(2*102); got != want {
		t.Errorf("syncs_adopted = %d after 102 beats to two standbys, want %d", got, want)
	}
}

// TestProgramCongestionControl checks the congestion manager's bring-up
// write: programming the fabric arms every HCA's BECN processing,
// charges one MAD per device, and leaves the encoded blob on the SM for
// HA state sync; re-programming the zero value disarms everything and
// clears the blob.
func TestProgramCongestionControl(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	cc := testCCParams()
	r.m.ProgramCongestionControl(cc)

	h := r.mesh.HCA(5)
	h.NotifyBECN(1)
	if h.CCTIndex() != 1 {
		t.Fatal("programmed HCA ignored a BECN")
	}
	devices := uint64(len(r.mesh.Switches) + len(r.mesh.HCAs))
	if got := r.m.Counters.Value(SMCCProgramMADs); got != devices {
		t.Fatalf("cc_program_mads = %d, want one per device (%d)", got, devices)
	}
	want, err := ParseCCBlob(r.m.SyncState(CCMagic))
	if err != nil || want != cc {
		t.Fatalf("SM did not retain the synced blob: %v %+v", err, want)
	}
	if r.m.CongestionTreeSpan() != 0 {
		t.Fatal("congestion tree spans switches on an idle fabric")
	}

	r.m.ProgramCongestionControl(fabric.CCParams{})
	if r.m.SyncState(CCMagic) != nil {
		t.Fatal("zero-value programming did not clear the synced blob")
	}
	h2 := r.mesh.HCA(6)
	h2.NotifyBECN(1)
	if h2.CCTIndex() != 0 {
		t.Fatal("unprogrammed HCA still processes BECNs")
	}
}
