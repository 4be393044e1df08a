// Package faults is the deterministic, seed-driven fault-injection layer
// of the simulator. A Plan schedules failures on the simulation engine —
// link down/up events, fabric bisections, and bit-error-rate bursts that
// exercise the CRC16/ICRC/MAC reject paths on live traffic — through
// small injection points in internal/fabric that change nothing when no
// plan is installed. Paired
// with the Subnet Manager's periodic re-sweep (internal/sm.Resweeper),
// it turns "the fabric discards traffic" from a unit-test premise into a
// live scenario: the same seed and the same plan always reproduce the
// same run, byte for byte.
package faults

import (
	"fmt"

	"ibasec/internal/fabric"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// LinkKill takes one full-duplex link down at DownAt and, when UpAt is
// later, back up at UpAt (zero means it stays down). The link is named
// from the switch side; the HCA-facing link is Port PortHCA.
type LinkKill struct {
	Link   topology.LinkID
	DownAt sim.Time
	UpAt   sim.Time
}

// BERBurst raises the fabric-wide link bit-error rate to Rate during
// [From, Until) (Until zero: until the end of the run).
type BERBurst struct {
	Rate  float64
	From  sim.Time
	Until sim.Time
}

// LinkBER raises the bit-error rate of one full-duplex link to Rate
// during [From, Until) (Until zero: until the end of the run), leaving
// every other link clean — the gray-failure fault BERBurst cannot
// express (a burst is fabric-wide). Both directions of the link degrade,
// like a real marginal cable. The link is named from the switch side;
// the HCA-facing uplink is Port PortHCA.
type LinkBER struct {
	Link  topology.LinkID
	Rate  float64
	From  sim.Time
	Until sim.Time
}

// OscillatingBER builds the adversarial flapping-link plan: the link's
// bit-error rate toggles between rate and clean every half period over
// [from, until). An attacker who can induce symbol errors uses exactly
// this shape to bounce a link in and out of quarantine and force route
// churn — the behaviour the PerfMgr's exponential flap damping exists
// to bound. Append the result to Plan.LinkBER.
func OscillatingBER(link topology.LinkID, rate float64, period, from, until sim.Time) []LinkBER {
	var out []LinkBER
	if period <= 0 || until <= from {
		return out
	}
	for t := from; t < until; t += period {
		end := t + period/2
		if end > until {
			end = until
		}
		out = append(out, LinkBER{Link: link, Rate: rate, From: t, Until: end})
	}
	return out
}

// Partition splits the fabric into two islands for [DownAt, UpAt): every
// inter-switch link crossing the cut between IslandA and the rest of the
// mesh goes down at DownAt and — when UpAt is later — back up at UpAt
// (zero means the split never heals). HCA uplinks are untouched, so each
// island remains a live, internally connected fabric; what the cut
// severs is only the other island's reachability. This is the
// split-brain fault: with an SM on each side, both islands end up with a
// master, and the heal forces the merge protocol to reconcile them.
type Partition struct {
	// IslandA lists the switch indices on one side of the cut; every
	// other switch is island B. Both sides must be non-empty and
	// internally connected (Validate checks this).
	IslandA []int
	DownAt  sim.Time
	UpAt    sim.Time
}

// CutLinks returns the inter-switch links of a W×H mesh that cross the
// cut between islandA and its complement, each named from the
// lower-indexed side (the same convention Chaos uses).
func (pt *Partition) CutLinks(w, h int) []topology.LinkID {
	inA := make(map[int]bool, len(pt.IslandA))
	for _, i := range pt.IslandA {
		inA[i] = true
	}
	var cut []topology.LinkID
	for _, l := range topology.MeshLinks(w, h) {
		if far, _, _ := topology.MeshNeighbor(w, h, l.Switch, l.Port); inA[l.Switch] != inA[far] {
			cut = append(cut, l)
		}
	}
	return cut
}

// Bisect returns the Partition that splits a W×H mesh vertically: island
// A is every switch in columns [0, col), island B the rest. col must be
// in (0, w); times are filled in by the caller.
func Bisect(w, h, col int) Partition {
	var a []int
	for y := 0; y < h; y++ {
		for x := 0; x < col; x++ {
			a = append(a, y*w+x)
		}
	}
	return Partition{IslandA: a}
}

// SMKill kills the active (master) subnet manager at time At. With HA
// standbys configured, lease expiry and election recover the management
// plane; without them, traps and rekeying stop for the rest of the run.
// The event targets whichever SM is master at At, so a second SMKill
// after a failover kills the newly elected master.
type SMKill struct {
	At sim.Time
}

// KeyCompromise declares one partition's current secret compromised at
// time At. The response is a forced out-of-cycle epoch rotation of that
// partition; after the grace window, packets MAC'd under the compromised
// epoch are rejected.
type KeyCompromise struct {
	// PKey is the full-membership P_Key of the compromised partition.
	PKey uint16
	At   sim.Time
}

// CorruptOp selects which piece of a switch's enforcement state a
// TableCorruption mutates.
type CorruptOp int

// Table-corruption operations, mirroring the entry-level mutators of
// internal/enforce: the first two hit the valid-P_Key table, the rest
// the SIF state (Invalid_P_Key_Table, the ingress-filtering enable flag).
const (
	CorruptAddValid CorruptOp = iota + 1
	CorruptRemoveValid
	CorruptClearInvalid
	CorruptDeactivate
)

func (op CorruptOp) String() string {
	switch op {
	case CorruptAddValid:
		return "AddValid"
	case CorruptRemoveValid:
		return "RemoveValid"
	case CorruptClearInvalid:
		return "ClearInvalid"
	case CorruptDeactivate:
		return "Deactivate"
	default:
		return fmt.Sprintf("CorruptOp(%d)", int(op))
	}
}

// Symbolic corruption targets: attacker and victim placement is drawn
// from the setup RNG inside the core layer's Build, so a plan authored
// before the run cannot name those switches by index. The core layer
// resolves the sentinels against the built cluster.
const (
	// SwitchAttackerIngress resolves to the first attacker's ingress
	// switch.
	SwitchAttackerIngress = -1
	// SwitchVictimIngress resolves to the ingress switch of the first
	// legitimate member of the lowest-base partition.
	SwitchVictimIngress = -2
)

// TableCorruption silently mutates one switch's enforcement state at
// time At — the Table 3 attacker with management access, or simply
// firmware losing state — without any trap or notification. Only the
// policy plane's drift auditor can observe and reverse it. Like SMKills
// and Compromises this is scheduled by the core layer (which holds the
// filter and resolves symbolic switches); Install only validates it.
type TableCorruption struct {
	// Switch is a mesh switch index or one of the Switch* sentinels.
	Switch int
	At     sim.Time
	Op     CorruptOp
	// PKey is the operand of AddValid/RemoveValid (full 16-bit entry).
	PKey uint16
}

// Plan is a complete, deterministic fault schedule for one run.
type Plan struct {
	// Seed drives every random draw the plan makes at run time (BER
	// strikes on an RNG-less fabric).
	Seed  int64
	Links []LinkKill
	// Partitions are fabric bisections, expanded at Install time into
	// the link kills of each cut.
	Partitions []Partition
	BER        []BERBurst
	// LinkBER are per-link bit-error windows (gray links); unlike BER
	// they leave the rest of the fabric clean.
	LinkBER []LinkBER
	// SMKills and Compromises are management-plane faults; the core
	// layer schedules them against its SM coordinator and key rotator
	// (Install only validates them — they have no fabric-level effect).
	SMKills     []SMKill
	Compromises []KeyCompromise
	Corruptions []TableCorruption
}

// Validate checks the plan against a mesh's geometry.
func (p *Plan) Validate(m *topology.Mesh) error {
	for _, lk := range p.Links {
		if lk.Link.Switch < 0 || lk.Link.Switch >= len(m.Switches) {
			return fmt.Errorf("faults: link kill on switch %d of %d", lk.Link.Switch, len(m.Switches))
		}
		if _, _, _, ok := m.LinkPeer(lk.Link.Switch, lk.Link.Port); !ok {
			return fmt.Errorf("faults: link kill on unconnected port %d of switch %d", lk.Link.Port, lk.Link.Switch)
		}
	}
	for _, pt := range p.Partitions {
		if pt.DownAt < 0 {
			return fmt.Errorf("faults: partition at negative time %v", pt.DownAt)
		}
		if pt.UpAt != 0 && pt.UpAt <= pt.DownAt {
			return fmt.Errorf("faults: partition window [%v,%v) is empty", pt.DownAt, pt.UpAt)
		}
		inA := make(map[int]bool, len(pt.IslandA))
		for _, i := range pt.IslandA {
			if i < 0 || i >= len(m.Switches) {
				return fmt.Errorf("faults: partition island switch %d of %d", i, len(m.Switches))
			}
			if inA[i] {
				return fmt.Errorf("faults: partition island lists switch %d twice", i)
			}
			inA[i] = true
		}
		if len(inA) == 0 || len(inA) == len(m.Switches) {
			return fmt.Errorf("faults: partition island has %d of %d switches — both sides must be non-empty", len(inA), len(m.Switches))
		}
		if !islandConnected(m.W, m.H, inA, true) || !islandConnected(m.W, m.H, inA, false) {
			return fmt.Errorf("faults: partition island is not internally connected")
		}
	}
	for _, b := range p.BER {
		if !(b.Rate >= 0 && b.Rate < 1) {
			return fmt.Errorf("faults: BER burst rate %v outside [0,1)", b.Rate)
		}
	}
	for _, lb := range p.LinkBER {
		if lb.Link.Switch < 0 || lb.Link.Switch >= len(m.Switches) {
			return fmt.Errorf("faults: link BER on switch %d of %d", lb.Link.Switch, len(m.Switches))
		}
		if _, _, _, ok := m.LinkPeer(lb.Link.Switch, lb.Link.Port); !ok {
			return fmt.Errorf("faults: link BER on unconnected port %d of switch %d", lb.Link.Port, lb.Link.Switch)
		}
		if !(lb.Rate >= 0 && lb.Rate < 1) {
			return fmt.Errorf("faults: link BER rate %v outside [0,1)", lb.Rate)
		}
		if lb.From < 0 {
			return fmt.Errorf("faults: link BER at negative time %v", lb.From)
		}
		if lb.Until != 0 && lb.Until <= lb.From {
			return fmt.Errorf("faults: link BER window [%v,%v) is empty", lb.From, lb.Until)
		}
	}
	for _, sk := range p.SMKills {
		if sk.At < 0 {
			return fmt.Errorf("faults: SM kill at negative time %v", sk.At)
		}
	}
	for _, kc := range p.Compromises {
		if kc.At < 0 {
			return fmt.Errorf("faults: key compromise at negative time %v", kc.At)
		}
		if kc.PKey&0x7FFF == 0 {
			return fmt.Errorf("faults: key compromise with zero P_Key base")
		}
	}
	for _, tc := range p.Corruptions {
		if tc.Switch < SwitchVictimIngress || tc.Switch >= len(m.Switches) {
			return fmt.Errorf("faults: corruption at switch %d of %d", tc.Switch, len(m.Switches))
		}
		if tc.At < 0 {
			return fmt.Errorf("faults: corruption at negative time %v", tc.At)
		}
		switch tc.Op {
		case CorruptAddValid, CorruptRemoveValid:
			if tc.PKey&0x7FFF == 0 {
				return fmt.Errorf("faults: %v corruption with zero P_Key base", tc.Op)
			}
		case CorruptClearInvalid, CorruptDeactivate:
		default:
			return fmt.Errorf("faults: unknown corruption op %d", int(tc.Op))
		}
	}
	return nil
}

// Install validates the plan and schedules every fault on the simulator.
// params must be the same Params the mesh was built with (BER bursts
// mutate it; callers that also run clean experiments must hand each run
// its own copy). Install must be called before the simulator runs past
// the earliest fault time.
func Install(s *sim.Simulator, m *topology.Mesh, params *fabric.Params, p *Plan) error {
	if err := p.Validate(m); err != nil {
		return err
	}
	rng := sim.NewRand(p.Seed ^ 0x0FA17)

	for _, lk := range p.Links {
		s.ScheduleAt(lk.DownAt, func() { setLink(m, lk.Link, false) })
		if lk.UpAt > lk.DownAt {
			s.ScheduleAt(lk.UpAt, func() { setLink(m, lk.Link, true) })
		}
	}
	for _, pt := range p.Partitions {
		for _, l := range pt.CutLinks(m.W, m.H) {
			s.ScheduleAt(pt.DownAt, func() { setLink(m, l, false) })
			if pt.UpAt > pt.DownAt {
				s.ScheduleAt(pt.UpAt, func() { setLink(m, l, true) })
			}
		}
	}
	for _, b := range p.BER {
		var saved float64
		s.ScheduleAt(b.From, func() {
			saved = params.BitErrorRate
			params.BitErrorRate = b.Rate
			if params.RNG == nil {
				params.RNG = rng
			}
		})
		if b.Until > b.From {
			s.ScheduleAt(b.Until, func() { params.BitErrorRate = saved })
		}
	}
	for _, lb := range p.LinkBER {
		s.ScheduleAt(lb.From, func() {
			if params.RNG == nil {
				params.RNG = rng
			}
			setLinkBER(m, lb.Link, lb.Rate)
		})
		if lb.Until > lb.From {
			s.ScheduleAt(lb.Until, func() { clearLinkBER(m, lb.Link) })
		}
	}
	return nil
}

// setLink changes both halves of a full-duplex link.
func setLink(m *topology.Mesh, l topology.LinkID, up bool) {
	m.Switches[l.Switch].SetLinkState(l.Port, up)
	isHCA, peer, peerPort, ok := m.LinkPeer(l.Switch, l.Port)
	if !ok {
		return
	}
	if isHCA {
		m.HCAs[peer].SetLinkState(up)
	} else {
		m.Switches[peer].SetLinkState(peerPort, up)
	}
}

// setLinkBER raises a per-link bit-error override on both halves of a
// full-duplex link: a marginal cable corrupts traffic in both
// directions.
func setLinkBER(m *topology.Mesh, l topology.LinkID, rate float64) {
	m.Switches[l.Switch].SetPortBER(l.Port, rate)
	isHCA, peer, peerPort, ok := m.LinkPeer(l.Switch, l.Port)
	if !ok {
		return
	}
	if isHCA {
		m.HCAs[peer].SetLinkBER(rate)
	} else {
		m.Switches[peer].SetPortBER(peerPort, rate)
	}
}

// clearLinkBER drops the override from both halves, restoring the
// fabric-wide rate.
func clearLinkBER(m *topology.Mesh, l topology.LinkID) {
	m.Switches[l.Switch].ClearPortBER(l.Port)
	isHCA, peer, peerPort, ok := m.LinkPeer(l.Switch, l.Port)
	if !ok {
		return
	}
	if isHCA {
		m.HCAs[peer].ClearLinkBER()
	} else {
		m.Switches[peer].ClearPortBER(peerPort)
	}
}

// Blackholed sums every fault-destroyed packet across the mesh: packets
// dropped on downed output channels and MADs destroyed by a switch's
// MAD tap.
func Blackholed(m *topology.Mesh) uint64 {
	var n uint64
	for _, sw := range m.Switches {
		n += sw.Blackholed()
	}
	for _, h := range m.HCAs {
		n += h.Blackholed()
	}
	return n
}

// Chaos builds a deterministic random plan for a W×H mesh: kills
// transient inter-switch link outages whose down times fall in the first
// half of [from, until) and whose outages last between a half and three
// quarters of the window — long enough that a periodic re-sweep is
// guaranteed to sample the fabric during the outage even on short runs.
// The killed set is re-drawn (bounded) until the switch graph stays
// connected with every killed link removed at once, so the experiment
// measures re-routing rather than partition loss; HCA uplinks are never
// killed, so the Subnet Manager keeps its in-band reach. A count the
// mesh cannot honour — negative, more than its inter-switch links, or
// with no connected draw among the bounded tries — is an error, never a
// plan labelled with the count but simulated with another. The same
// seed always yields the same plan.
func Chaos(seed int64, w, h, kills int, from, until sim.Time) (*Plan, error) {
	p := &Plan{Seed: seed}
	if kills < 0 {
		return nil, fmt.Errorf("faults: %d link kills", kills)
	}
	if kills == 0 || until <= from {
		return p, nil
	}
	rng := sim.NewRand(seed ^ 0xC4A05)

	links := topology.MeshLinks(w, h)
	if kills > len(links) {
		return nil, fmt.Errorf("faults: %d link kills in a %dx%d mesh of %d inter-switch links", kills, w, h, len(links))
	}

	const draws = 100
	chosen := make([]topology.LinkID, kills)
	for attempt := 0; ; attempt++ {
		if attempt == draws {
			return nil, fmt.Errorf("faults: no draw of %d link kills in %d keeps the %dx%d mesh connected", kills, draws, w, h)
		}
		perm := rng.Perm(len(links))
		for i := range chosen {
			chosen[i] = links[perm[i]]
		}
		if meshConnectedWithout(w, h, chosen) {
			break
		}
	}

	window := until - from
	for _, l := range chosen {
		down := from + sim.Time(rng.Int63n(int64(window/2)+1))
		outage := window/2 + sim.Time(rng.Int63n(int64(window/4)+1))
		p.Links = append(p.Links, LinkKill{Link: l, DownAt: down, UpAt: down + outage})
	}
	return p, nil
}

// PrimaryHopLink returns the first inter-switch link on the primary
// (X-then-Y) route from node src to node dst in a w-wide mesh, and false
// when the two nodes share a switch. Killing it severs the primary path
// at its very first hop while leaving the Y-then-X alternate route
// intact for any pair whose coordinates differ in both dimensions — the
// targeted fault the apm experiment rides out via path migration.
func PrimaryHopLink(w int, src, dst int) (topology.LinkID, bool) {
	if p := topology.DORPort(src%w, src/w, dst%w, dst/w, false); p != topology.PortHCA {
		return topology.LinkID{Switch: src, Port: p}, true
	}
	return topology.LinkID{}, false
}

// islandConnected reports whether the switches of one partition side
// (inA[i] == side) form a connected subgraph of the W×H grid.
func islandConnected(w, h int, inA map[int]bool, side bool) bool {
	start, total := -1, 0
	for i := 0; i < w*h; i++ {
		if inA[i] == side {
			total++
			if start < 0 {
				start = i
			}
		}
	}
	if total == 0 {
		return false
	}
	var t topology.Tree
	t.SearchMesh(w, h, start, func(_, far topology.LinkID) bool { return inA[far.Switch] == side })
	return t.Reached() == total
}

// meshConnectedWithout reports whether the W×H switch grid stays
// connected after removing the given inter-switch links.
func meshConnectedWithout(w, h int, dead []topology.LinkID) bool {
	deadSet := make(map[topology.LinkID]bool, len(dead))
	for _, l := range dead {
		deadSet[l] = true
	}
	var t topology.Tree
	t.SearchMesh(w, h, 0, func(near, far topology.LinkID) bool { return !deadSet[near] && !deadSet[far] })
	return t.Reached() == w*h
}
