package fabric

import (
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// testCC returns small congestion-control settings sized for the tiny
// topologies below: mark at 3 queued packets, 4 CCT levels of 2 us.
func testCC() CCParams {
	return CCParams{
		MarkingThreshold: 3,
		CCTSize:          4,
		CCTStep:          2 * sim.Microsecond,
		CCTDecay:         100 * sim.Microsecond,
	}
}

func TestCCParamsValidate(t *testing.T) {
	const credits = 4
	cc := testCC()
	if err := cc.Validate(credits); err != nil {
		t.Fatalf("rejected valid settings: %v", err)
	}
	if err := (&CCParams{}).Validate(credits); err != nil {
		t.Fatalf("rejected the zero value (congestion control off): %v", err)
	}
	bad := map[string]CCParams{
		"negative threshold":     {MarkingThreshold: -1},
		"cct size w/o threshold": {CCTSize: 4},
		"cct step w/o threshold": {CCTStep: sim.Microsecond},
		"decay w/o threshold":    {CCTDecay: sim.Microsecond},
		"unreachable threshold":  {MarkingThreshold: 4*credits + 1, CCTSize: 4, CCTStep: 1, CCTDecay: 1},
		"zero cct size":          {MarkingThreshold: 3, CCTSize: 0, CCTStep: 1, CCTDecay: 1},
		"negative cct size":      {MarkingThreshold: 3, CCTSize: -4, CCTStep: 1, CCTDecay: 1},
		"zero cct step":          {MarkingThreshold: 3, CCTSize: 4, CCTStep: 0, CCTDecay: 1},
		"negative cct step":      {MarkingThreshold: 3, CCTSize: 4, CCTStep: -1, CCTDecay: 1},
		"zero decay":             {MarkingThreshold: 3, CCTSize: 4, CCTStep: 1, CCTDecay: 0},
		"negative decay":         {MarkingThreshold: 3, CCTSize: 4, CCTStep: 1, CCTDecay: -1},
	}
	for name, cc := range bad {
		if err := cc.Validate(credits); err == nil {
			t.Errorf("%s: accepted %+v", name, cc)
		}
	}
	// The fabric-wide Params.Validate must propagate the check, so a bad
	// annex configuration cannot reach Connect.
	p := DefaultParams()
	p.Congestion = CCParams{MarkingThreshold: -1}
	if p.Validate() == nil {
		t.Error("Params.Validate accepted a negative marking threshold")
	}
}

// incast builds a 2-senders-into-1-receiver star: the only topology a
// single switch can grow an output queue in, since each input link runs
// at the same rate as the output.
func incast(t *testing.T, params *Params) (*sim.Simulator, *HCA, *HCA, *HCA, *Switch) {
	t.Helper()
	s := sim.New()
	sw := NewSwitch(s, params, "sw", 5)
	a := NewHCA(s, params, "A", 1)
	b := NewHCA(s, params, "B", 2)
	c := NewHCA(s, params, "C", 3)
	Connect(s, params, a, 0, sw, 0)
	Connect(s, params, b, 0, sw, 1)
	Connect(s, params, c, 0, sw, 2)
	sw.MarkIngress(0)
	sw.MarkIngress(1)
	sw.MarkIngress(2)
	sw.SetRoute(1, 0)
	sw.SetRoute(2, 1)
	sw.SetRoute(3, 2)
	for _, h := range []*HCA{a, b, c} {
		h.PKeyTable.Add(packet.PKey(0x8001))
	}
	return s, a, b, c, sw
}

// TestFECNMarkingAtThreshold drives two senders into one output port and
// checks the switch marks exactly when the programmed queue depth is
// reached: an unprogrammed switch never marks, a light load stays below
// threshold, an incast flood trips it, and marked packets still pass the
// per-link VCRC at the destination (the wire image is repatched, not
// invalidated).
func TestFECNMarkingAtThreshold(t *testing.T) {
	// Unprogrammed switch: congestion control defaults off.
	s, a, b, c, sw := incast(t, DefaultParams())
	for i := 0; i < 8; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
		c.Send(&Delivery{Pkt: mkPkt(3, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	}
	s.Run()
	if n := sw.FECNMarkedTotal(); n != 0 {
		t.Fatalf("unprogrammed switch marked %d packets", n)
	}

	// Programmed switch, single in-flight packet: below threshold.
	s, a, b, c, sw = incast(t, DefaultParams())
	sw.SetCongestionControl(3)
	a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	s.Run()
	if n := sw.FECNMarkedTotal(); n != 0 {
		t.Fatalf("marked %d packets below threshold", n)
	}

	// Incast flood: the output queue toward B exceeds depth 3 and the
	// joining packets are marked.
	s, a, b, c, sw = incast(t, DefaultParams())
	sw.SetCongestionControl(3)
	marked, delivered := 0, 0
	b.OnDeliver = func(d *Delivery) {
		delivered++
		if d.Pkt.BTH.FECN {
			marked++
		}
	}
	for i := 0; i < 8; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
		c.Send(&Delivery{Pkt: mkPkt(3, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	}
	s.Run()
	if delivered != 16 {
		t.Fatalf("delivered %d/16 (VCRC drops: %d) — FECN repatch corrupted the wire?",
			delivered, b.Counters.Value(HCAVCRCDrops))
	}
	if sw.FECNMarkedTotal() == 0 || marked == 0 {
		t.Fatalf("incast flood never marked: switch=%d delivered-marked=%d",
			sw.FECNMarkedTotal(), marked)
	}
	if got := sw.FECNMarked(1); got != sw.FECNMarkedTotal() {
		t.Fatalf("marks not attributed to the hot port: port1=%d total=%d", got, sw.FECNMarkedTotal())
	}
}

// TestFECNNeverMarksManagementVL floods the management lane through a
// programmed switch: SMPs must never carry congestion marks (the annex
// exempts VL15, and throttling the control plane would hand a DoS
// attacker the subnet manager).
func TestFECNNeverMarksManagementVL(t *testing.T) {
	s, a, _, c, sw := incast(t, DefaultParams())
	sw.SetCongestionControl(3)
	for i := 0; i < 8; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLManagement, 256), Class: ClassManagement, VL: VLManagement})
		c.Send(&Delivery{Pkt: mkPkt(3, 2, VLManagement, 256), Class: ClassManagement, VL: VLManagement})
	}
	s.Run()
	if n := sw.FECNMarkedTotal(); n != 0 {
		t.Fatalf("management VL marked %d times", n)
	}
}

// TestCongestionFeedbackLoop exercises the destination and source halves
// of the annex end to end on a two-HCA link: a FECN-marked datagram
// arriving at B must be answered with a CNP; the CNP must be consumed by
// A (not delivered as traffic), bump A's congestion control table for
// the flow, and throttle A's next injection toward that destination; and
// the table must decay back to zero once notifications stop.
func TestCongestionFeedbackLoop(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	a.SetCongestionControl(testCC())
	b.SetCongestionControl(testCC())

	// A FECN-marked UD datagram, as a congested switch on the path would
	// have produced.
	p := mkPkt(1, 2, VLBestEffort, 512)
	p.BTH.FECN = true
	p.InvalidateWire()
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	a.Send(&Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort})

	idxAtProbe := -1
	s.ScheduleAt(50*sim.Microsecond, func() {
		idxAtProbe = a.CCTIndex()
		// A throttled injection toward the congested destination.
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 512), Class: ClassBestEffort, VL: VLBestEffort})
	})
	s.Run()

	if got := b.Counters.Value(HCAFECNReceived); got != 1 {
		t.Errorf("fecn_received = %d, want 1", got)
	}
	if got := b.Counters.Value(HCACNPSent); got != 1 {
		t.Errorf("cnp_sent = %d, want 1", got)
	}
	if got := a.Counters.Value(HCACNPReceived); got != 1 {
		t.Errorf("cnp_received = %d, want 1", got)
	}
	if got := a.Counters.Value(HCABECNNotified); got != 1 {
		t.Errorf("becn_notified = %d, want 1", got)
	}
	if got := a.Counters.Value(HCADelivered); got != 0 {
		t.Errorf("CNP delivered as traffic at the source (delivered = %d)", got)
	}
	if idxAtProbe != 1 {
		t.Errorf("CCT index at probe = %d, want 1", idxAtProbe)
	}
	if got := a.Counters.Value(HCACCTThrottled); got != 1 {
		t.Errorf("cct_throttled = %d, want 1", got)
	}
	if got := a.CCTIndex(); got != 0 {
		t.Errorf("CCT index %d did not decay to zero by run end", got)
	}
	if got := b.Counters.Value(HCADelivered); got != 2 {
		t.Errorf("victim delivered = %d, want 2 (marked datagram + throttled follow-up)", got)
	}
}

// TestCCTSaturatesAtTableSize: repeated BECNs must pin the flow at the
// table's last entry, never beyond.
func TestCCTSaturatesAtTableSize(t *testing.T) {
	params := DefaultParams()
	_, a, _, _ := twoHCAs(t, params)
	cc := testCC()
	a.SetCongestionControl(cc)
	for i := 0; i < cc.CCTSize+5; i++ {
		a.NotifyBECN(2)
	}
	if got := a.CCTIndex(); got != cc.CCTSize {
		t.Fatalf("CCT index = %d, want saturation at %d", got, cc.CCTSize)
	}
}

// TestCCOffIsInert: without SM programming, a FECN-marked arrival elicits
// no CNP and NotifyBECN is a no-op — the annex must be invisible until
// the congestion manager programs the devices.
func TestCCOffIsInert(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)

	p := mkPkt(1, 2, VLBestEffort, 512)
	p.BTH.FECN = true
	p.InvalidateWire()
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	a.Send(&Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort})
	a.NotifyBECN(2)
	s.Run()

	if got := b.Counters.Value(HCACNPSent); got != 0 {
		t.Errorf("unprogrammed HCA sent %d CNPs", got)
	}
	if got := b.Counters.Value(HCADelivered); got != 1 {
		t.Errorf("marked packet not delivered normally (delivered = %d)", got)
	}
	if got := a.CCTIndex(); got != 0 {
		t.Errorf("NotifyBECN moved an unprogrammed CCT to %d", got)
	}
	if got := a.Counters.Value(HCACCTThrottled); got != 0 {
		t.Errorf("unprogrammed HCA throttled %d sends", got)
	}
}
