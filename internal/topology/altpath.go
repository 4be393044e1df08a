package topology

import "ibasec/internal/packet"

// Alternate-path LIDs (APM support). IBA 17.2.8 lets a channel adapter
// pre-load a connection with an alternate path and migrate to it without
// SM involvement at failover time. This model gives every node a second,
// path-disjoint address: packets sent to AltLIDOf(i) reach the same HCA
// as LIDOf(i) but are routed Y-then-X — the mirror of the primary
// X-then-Y DOR — so for any pair whose coordinates differ in both
// dimensions the two routes share no intermediate link. Alternate LIDs
// live far above the base range, so re-sweep reprogramming (which pins
// base CA LIDs only) never disturbs them.
const AltLIDBase packet.LID = 0x1000

// AltLIDOf returns node i's alternate-path LID.
func AltLIDOf(i int) packet.LID { return AltLIDBase + packet.LID(i+1) }

// ProgramAlternatePaths installs Y-then-X routes for every node's
// alternate LID on every switch. Purely additive: base-LID routes are
// untouched, so programming alternates cannot perturb primary traffic.
func (m *Mesh) ProgramAlternatePaths() {
	for i, sw := range m.Switches {
		sx, sy := i%m.W, i/m.W
		for t := range m.HCAs {
			sw.SetRoute(AltLIDOf(t), DORPort(sx, sy, t%m.W, t/m.W, true))
		}
	}
}

// AltPathSwitches returns the indices of the switches a packet from node
// src to AltLIDOf(dst) traverses (Y-then-X), in path order and including
// both endpoints' switches. These are the switches that need
// source-identity registrations for migrated traffic to survive SIF
// enforcement.
func (m *Mesh) AltPathSwitches(src, dst int) []int {
	path := []int{src}
	for sw := src; sw != dst; {
		_, sw, _, _ = m.LinkPeer(sw, DORPort(sw%m.W, sw/m.W, dst%m.W, dst/m.W, true))
		path = append(path, sw)
	}
	return path
}
