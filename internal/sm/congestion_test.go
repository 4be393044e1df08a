package sm

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
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
// opens it — by content, not position. Malformed trailers are rejected.
func TestStateSyncCarriesCCBlob(t *testing.T) {
	base := stateSyncMAD{
		Master:     3,
		DirDigest:  0xDEADBEEF,
		Partitions: []syncPartition{{Base: 0x8001, Epoch: 7, Members: []uint16{1, 4, 9}}},
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
		pl := encodeStateSync(in)
		if got := hex.EncodeToString(pl); got != tc.wire {
			t.Errorf("%s: wire image changed:\n got %s\nwant %s", tc.name, got, tc.wire)
		}
		got, err := parseStateSync(pl)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, in) {
			t.Errorf("%s: round trip changed the MAD:\n got %+v\nwant %+v", tc.name, got, in)
		}
		// Adopted in reverse, so position cannot be what files them.
		var standby SubnetManager
		for i := len(got.Blobs) - 1; i >= 0; i-- {
			standby.SetSyncState(string(got.Blobs[i][:syncMagicSize]), got.Blobs[i])
		}
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
		if _, err := parseStateSync(pl); !errors.Is(err, errHAShort) {
			t.Errorf("%s: err = %v, want errHAShort", name, err)
		}
	}
}

// TestSyncStateAllocFree holds the heartbeat path to what it allocated
// while the trailers were three named fields — nothing: a standby filing
// a trailer under a magic it already knows, and a master listing the
// trailers of its second and later beats. A mgmt-planes repetition does
// both 600 beats × 2 standbys × 3 planes times, and the run-level
// allocation ceilings are too loose to see either come back.
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

	c, err := NewCoordinator(r.s, r.mesh, HAConfig{}, DefaultConfig().MKey, r.m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.syncTrailers(r.m); !reflect.DeepEqual(got, blobs) {
		t.Fatalf("trailers %q, want the three blobs in first-set order", got)
	}
	if n := testing.AllocsPerRun(100, func() { c.syncTrailers(r.m) }); n != 0 {
		t.Errorf("a second beat's trailer list allocated %.0f times, want 0", n)
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
	if got := r.m.Counters.Get("cc_program_mads"); got != devices {
		t.Fatalf("cc_program_mads = %d, want one per device (%d)", got, devices)
	}
	want, err := ParseCCBlob(r.m.SyncState(CCMagic))
	if err != nil || want != cc {
		t.Fatalf("SM did not retain the synced blob: %v %+v", err, want)
	}
	if len(r.m.QueryCongestionLog()) != 0 {
		t.Fatal("congestion log non-empty on an idle fabric")
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
