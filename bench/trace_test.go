package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/sim"
)

func testTracer() *tracer {
	tr := newTracer()
	tr.pending = func() int { return 3 }
	return tr
}

func dataDelivery() *fabric.Delivery {
	return &fabric.Delivery{Pkt: udPacket(0, 5, 64, rigPKey), Class: fabric.ClassBestEffort, Source: "hca0"}
}

const us = sim.Microsecond

// One packet, two switches: enqueue, inject, forward, forward, deliver.
func TestTracerPairsSpans(t *testing.T) {
	tr := testTracer()
	d := dataDelivery()
	d.EnqueuedAt = 10 * us
	tr.Observe(10*us, fabric.ObsEnqueue, "hca0", d)
	d.InjectedAt = 12 * us
	tr.Observe(13*us, fabric.ObsForward, "sw0", d)
	tr.Observe(15*us, fabric.ObsForward, "sw1", d)
	d.DeliveredAt = 18 * us
	tr.Observe(18*us, fabric.ObsDeliver, "hca5", d)

	if len(tr.live) != 0 {
		t.Errorf("%d packets still live after delivery", len(tr.live))
	}
	byName := map[string][]Span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Pkt != 1 || s.Clock != "sim_us" {
			t.Errorf("span %+v: want pkt 1 on the simulated clock", s)
		}
	}
	q, tx, hops := byName["fabric.hca_queue"], byName["fabric.transit"], byName["fabric.hop"]
	if len(q) != 1 || len(tx) != 1 || len(hops) != 3 {
		t.Fatalf("spans: %d hca_queue, %d transit, %d hop; want 1, 1, 3", len(q), len(tx), len(hops))
	}
	if q[0].Start != 10 || q[0].End != 12 || q[0].Parent != spanSimulate {
		t.Errorf("hca_queue = %+v, want 10..12 under core.simulate", q[0])
	}
	if tx[0].Start != 12 || tx[0].End != 18 || tx[0].Parent != spanSimulate {
		t.Errorf("transit = %+v, want 12..18 under core.simulate", tx[0])
	}
	wantHops := [][2]float64{{12, 13}, {13, 15}, {15, 18}}
	ids := map[int]bool{q[0].ID: true, tx[0].ID: true}
	for i, h := range hops {
		if h.Start != wantHops[i][0] || h.End != wantHops[i][1] {
			t.Errorf("hop %d = %v..%v, want %v", i, h.Start, h.End, wantHops[i])
		}
		if h.Parent != tx[0].ID {
			t.Errorf("hop %d parent = %d, want the transit span %d", i, h.Parent, tx[0].ID)
		}
		if ids[h.ID] {
			t.Errorf("span id %d reused", h.ID)
		}
		ids[h.ID] = true
	}
	// Hops tile the transit exactly.
	if tr.hopN != 3 || tr.hopSumUS != 6 {
		t.Errorf("hop aggregate = %v us over %d hops, want 6 over 3", tr.hopSumUS, tr.hopN)
	}
	if len(tr.queueUS) != 1 || tr.queueUS[0] != 2 || tr.transitUS[0] != 6 {
		t.Errorf("samples: queue %v transit %v, want [2] [6]", tr.queueUS, tr.transitUS)
	}
	if tr.plainPkts != 1 || tr.plainBytes != uint64(d.Pkt.WireSize()) || tr.pendingSum != 3 {
		t.Errorf("accounting: %d pkts %d bytes pending %d", tr.plainPkts, tr.plainBytes, tr.pendingSum)
	}
}

// A filtered packet ends without spans; a management packet is counted
// but never spanned; an event for an unknown packet is ignored.
func TestTracerDropsAndManagement(t *testing.T) {
	tr := testTracer()
	d := dataDelivery()
	tr.Observe(1*us, fabric.ObsEnqueue, "hca0", d)
	d.InjectedAt = 1 * us
	tr.Observe(2*us, fabric.ObsForward, "sw0", d)
	tr.Observe(3*us, fabric.ObsFiltered, "sw1", d)
	if len(tr.live) != 0 {
		t.Errorf("filtered packet still live")
	}
	if got := tr.kinds[fabric.ObsFiltered]; got != 1 {
		t.Errorf("filtered count = %d, want 1", got)
	}
	if len(tr.queueUS) != 0 {
		t.Errorf("filtered packet produced delay samples")
	}

	mad := &fabric.Delivery{Pkt: udPacket(0, 1, 256, 0xFFFF), Class: fabric.ClassManagement}
	before := len(tr.spans)
	tr.Observe(4*us, fabric.ObsEnqueue, "hca0", mad)
	tr.Observe(5*us, fabric.ObsDeliver, "hca1", mad)
	if len(tr.spans) != before || len(tr.live) != 0 {
		t.Errorf("management packet was spanned")
	}
	if tr.mgmtPkts != 1 || tr.mgmtFwd != 1 {
		t.Errorf("management accounting: %d sent, %d hops; want 1, 1", tr.mgmtPkts, tr.mgmtFwd)
	}

	tr.Observe(6*us, fabric.ObsDeliver, "hca2", dataDelivery()) // never enqueued
	if len(tr.queueUS) != 0 {
		t.Errorf("unknown packet produced delay samples")
	}
}

// Spans beyond the retained-packet limit still feed the aggregates.
func TestTracerRetentionLimit(t *testing.T) {
	tr := testTracer()
	tr.nextPkt = maxTracedPackets
	d := dataDelivery()
	tr.Observe(1*us, fabric.ObsEnqueue, "hca0", d)
	d.InjectedAt, d.DeliveredAt = 1*us, 2*us
	tr.Observe(2*us, fabric.ObsDeliver, "hca5", d)
	if len(tr.spans) != 0 {
		t.Errorf("kept %d spans for packet %d", len(tr.spans), maxTracedPackets+1)
	}
	if tr.hopN != 1 || len(tr.transitUS) != 1 {
		t.Errorf("aggregates skipped the unretained packet")
	}
}

func TestWriteSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	roots := []Span{{Name: "core.build", ID: spanBuild, Clock: "host_s", End: 0.5}}
	spans := []Span{
		{Name: "fabric.hop", ID: 4, Parent: 3, Pkt: 1, Clock: "sim_us", Start: 2, End: 3},
		{Name: "fabric.hca_queue", ID: 5, Parent: spanSimulate, Pkt: 1, Clock: "sim_us", Start: 1, End: 2},
	}
	if err := writeSpans(path, roots, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		names = append(names, s.Name)
	}
	want := []string{"core.build", "fabric.hca_queue", "fabric.hop"}
	if len(names) != len(want) {
		t.Fatalf("read %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("read %v, want %v (roots first, then by start time)", names, want)
		}
	}
}
