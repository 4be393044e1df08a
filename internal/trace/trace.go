// Package trace records packet-lifecycle events from the fabric into a
// bounded ring buffer for post-mortem inspection: which node saw a packet
// when, where it was filtered or dropped, and when it was delivered. It
// implements fabric.Observer; attach it through fabric.Params.Observer or
// core.Config.TraceCapacity.
package trace

import (
	"fmt"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Event is one recorded packet observation.
type Event struct {
	At    sim.Time
	Kind  fabric.ObsKind
	Node  string
	Class fabric.Class
	SLID  packet.LID
	DLID  packet.LID
	PKey  packet.PKey
	PSN   uint32
	Op    packet.OpCode
	Size  int
	Hops  int
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v %-11s %-8s %v %d->%d pkey=%#04x psn=%d hops=%d %dB",
		e.At, e.Kind, e.Node, e.Class, e.SLID, e.DLID, uint16(e.PKey), e.PSN, e.Hops, e.Size)
}

// Ring is a fixed-capacity event recorder: when full, the oldest events
// are overwritten. It implements fabric.Observer. Not safe for concurrent
// use — the simulator is single-threaded.
type Ring struct {
	buf   []Event
	next  int
	total uint64
	// Filter, when non-nil, selects which events are recorded.
	Filter func(Event) bool
}

// NewRing returns a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Observe implements fabric.Observer.
func (r *Ring) Observe(at sim.Time, kind fabric.ObsKind, node string, d *fabric.Delivery) {
	ev := Event{
		At:    at,
		Kind:  kind,
		Node:  node,
		Class: d.Class,
		SLID:  d.Pkt.LRH.SLID,
		DLID:  d.Pkt.LRH.DLID,
		PKey:  d.Pkt.BTH.PKey,
		PSN:   d.Pkt.BTH.PSN,
		Op:    d.Pkt.BTH.OpCode,
		Size:  d.Pkt.WireSize(),
		Hops:  d.Hops,
	}
	if r.Filter != nil && !r.Filter(ev) {
		return
	}
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % cap(r.buf)
}

// Total returns how many events were observed (including overwritten).
func (r *Ring) Total() uint64 { return r.total }

// Events returns retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// CountByKind tallies retained events per kind.
func (r *Ring) CountByKind() map[fabric.ObsKind]int {
	m := make(map[fabric.ObsKind]int)
	for _, ev := range r.Events() {
		m[ev.Kind]++
	}
	return m
}
