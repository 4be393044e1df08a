package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"

	"ibasec/internal/fabric"
	"ibasec/internal/sim"
)

// maxTracedPackets bounds the spans kept for trace-<workload>.jsonl;
// aggregates always cover every packet.
const maxTracedPackets = 10000

// Span is one recorded interval. Root spans (core.build, core.simulate)
// are in host seconds since the traced run began; per-packet spans are in
// simulated microseconds and share the packet's id in Pkt.
type Span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Pkt    int     `json:"pkt,omitempty"`
	Clock  string  `json:"clock"` // "host_s" or "sim_us"
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Node   string  `json:"node,omitempty"`
}

const (
	spanBuild    = 1
	spanSimulate = 2
)

// pktState follows one data packet from ObsEnqueue to its terminal event.
type pktState struct {
	id      int
	lastHop sim.Time // previous hop boundary: injection, then each forward
	hops    int
	transit int // span id of fabric.transit, parent of the hop spans
}

// tracer is the benchmark's fabric.Observer. It pairs lifecycle events
// into per-packet spans — fabric.hca_queue (enqueue to first byte on the
// wire), fabric.transit (injection to delivery) and one fabric.hop per
// hop boundary (injection or previous forward to the next forward, and
// last forward to delivery) — and counts every event kind. Management
// packets are counted but not spanned: directed-route SMPs are forwarded
// outside the observed LID path and many start or end inside a switch.
type tracer struct {
	// pending reads the engine's queue length; it is sampled at every
	// enqueue so est_share.sim can price events at the depth they ran at.
	pending    func() int
	pendingSum uint64

	kinds    [fabric.ObsCNP + 1]uint64
	mgmtFwd  uint64 // management-class forwards and deliveries observed
	live     map[*fabric.Delivery]*pktState
	nextPkt  int
	nextSpan int
	spans    []Span

	queueUS, transitUS []float64 // one sample per delivered data packet
	hopSumUS           float64
	hopN               uint64

	// Seal accounting for est_share: wire bytes of data packets entering
	// the fabric, split by whether the ICRC field holds a CRC or a tag,
	// and of management packets.
	plainPkts, plainBytes uint64
	authPkts, authBytes   uint64
	mgmtPkts, mgmtBytes   uint64
}

func newTracer() *tracer {
	return &tracer{live: make(map[*fabric.Delivery]*pktState), nextSpan: spanSimulate + 1}
}

// record keeps a simulated-time span of packet pkt under a given id, while
// the packet is within the retention limit.
func (t *tracer) record(id int, name string, parent, pkt int, start, end sim.Time, node string) {
	if pkt <= maxTracedPackets {
		t.spans = append(t.spans, Span{
			Name: name, ID: id, Parent: parent, Pkt: pkt, Clock: "sim_us",
			Start: start.Microseconds(), End: end.Microseconds(), Node: node,
		})
	}
}

// span records a span under a fresh id.
func (t *tracer) span(name string, parent, pkt int, start, end sim.Time, node string) {
	t.record(t.nextSpan, name, parent, pkt, start, end, node)
	t.nextSpan++
}

// hop closes the hop that ends at the given boundary.
func (t *tracer) hop(st *pktState, d *fabric.Delivery, at sim.Time, node string) {
	if st.hops == 0 {
		// First boundary: the transit span opens at injection.
		st.lastHop = d.InjectedAt
		st.transit = t.nextSpan
		t.nextSpan++
	}
	t.span("fabric.hop", st.transit, st.id, st.lastHop, at, node)
	t.hopSumUS += (at - st.lastHop).Microseconds()
	t.hopN++
	st.lastHop = at
	st.hops++
}

// Observe implements fabric.Observer.
func (t *tracer) Observe(at sim.Time, kind fabric.ObsKind, node string, d *fabric.Delivery) {
	if int(kind) < len(t.kinds) {
		t.kinds[kind]++
	}
	if d.Class == fabric.ClassManagement {
		switch kind {
		case fabric.ObsEnqueue:
			t.mgmtPkts++
			t.mgmtBytes += uint64(d.Pkt.WireSize())
		case fabric.ObsForward, fabric.ObsDeliver:
			t.mgmtFwd++
		}
		return
	}
	switch kind {
	case fabric.ObsEnqueue:
		t.nextPkt++
		t.live[d] = &pktState{id: t.nextPkt}
		t.pendingSum += uint64(t.pending())
		if d.Pkt.BTH.AuthID != 0 {
			t.authPkts++
			t.authBytes += uint64(d.Pkt.WireSize())
		} else {
			t.plainPkts++
			t.plainBytes += uint64(d.Pkt.WireSize())
		}
	case fabric.ObsForward:
		if st := t.live[d]; st != nil {
			t.hop(st, d, at, node)
		}
	case fabric.ObsDeliver:
		st := t.live[d]
		if st == nil {
			return
		}
		delete(t.live, d)
		t.hop(st, d, d.DeliveredAt, node)
		t.span("fabric.hca_queue", spanSimulate, st.id, d.EnqueuedAt, d.InjectedAt, d.Source)
		t.record(st.transit, "fabric.transit", spanSimulate, st.id, d.InjectedAt, d.DeliveredAt, node)
		t.queueUS = append(t.queueUS, d.QueuingTime().Microseconds())
		t.transitUS = append(t.transitUS, d.NetworkLatency().Microseconds())
	case fabric.ObsFiltered, fabric.ObsUnroutable, fabric.ObsCRCDrop, fabric.ObsPKeyReject,
		fabric.ObsBlackhole, fabric.ObsHOQDrop, fabric.ObsBECN:
		// Terminal without delivery (ObsBECN: a CNP consumed by the
		// source HCA): the packet's spans are dropped with it.
		delete(t.live, d)
	}
}

func (t *tracer) dropped() uint64 {
	return t.kinds[fabric.ObsUnroutable] + t.kinds[fabric.ObsCRCDrop] + t.kinds[fabric.ObsPKeyReject] +
		t.kinds[fabric.ObsBlackhole] + t.kinds[fabric.ObsHOQDrop]
}

// writeSpans writes root plus per-packet spans as JSON lines, ordered by
// start within each clock so the file reads as a timeline.
func writeSpans(path string, roots, spans []Span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, group := range [][]Span{roots, spans} {
		for i := range group {
			if err := enc.Encode(&group[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
