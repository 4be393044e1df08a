package sm

import (
	"maps"

	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// Resweeper upgrades the one-shot Discoverer into the periodic
// self-healing control loop a real Subnet Manager runs (IBA 14.4.5): it
// re-sweeps the fabric every period, detects links and devices that died
// since the last healthy view (their probes terminally time out),
// recomputes shortest-path routes around the damage, and reprograms the
// surviving switches' forwarding tables in-band — all with the LIDs of
// surviving endpoints pinned, so live connections are never renumbered
// while they ride out the outage on transport-level retransmission.
//
// A sweep that finds the graph unchanged costs only the probe SMPs; LID
// assignment and route programming are paid only on change.
type Resweeper struct {
	sim    *sim.Simulator
	disc   *Discoverer
	period sim.Time

	edges topology.EdgeSet // last adopted (healthy) edge set, refilled in place
	pins  map[uint64]packet.LID

	sweeping bool
	stop     func()
	// The sweep in progress — when it started, its first detection and,
	// once probed, its change — and its three steps as func values made
	// once, so a sweep allocates nothing until its graph changes.
	start, detectedAt  sim.Time
	lost, gained       int
	lostEdge           func(fromGUID uint64, port int)
	probed, configured func(*DiscoveredTopology)

	// Counters: sweeps, detections, lost_links, restored_links, reroutes.
	Counters metrics.Set[ResweepCounter]
	ctr      [numResweepCounters]uint64 // Counters' cells
	// SweepLatency records each probe phase's duration in microseconds.
	SweepLatency *metrics.Recorder
	// RerouteLatency records, for each sweep that changed the graph, the
	// microseconds from detection (first lost-edge timeout, or sweep end
	// for pure restorations) to the moment every surviving switch's
	// forwarding table was reprogrammed.
	RerouteLatency *metrics.Recorder
	// OnEvent, when non-nil, receives a HealEvent after every sweep that
	// changed the graph and completed reconfiguration.
	OnEvent func(HealEvent)
	// Quarantined, when non-nil, reports the directed switch-edge halves
	// (GUID and port, both directions) the performance manager currently
	// has fenced. The resweeper deletes them from every probe result
	// before diffing and before route programming, so a heal sweep —
	// whose probes still traverse the physically-up fenced link — can
	// never re-program routes back over it (the double-programming race
	// between the health plane's reroute and a concurrent heal).
	Quarantined func() []topology.EdgeHalf
}

// HealEvent reports one completed healing round.
type HealEvent struct {
	Sweep      uint64   // ordinal of the sweep that saw the change
	LostEdges  int      // directed edges present before, gone now
	NewEdges   int      // directed edges new in this sweep (restorations)
	DetectedAt sim.Time // first terminal timeout on a known edge (0: none)
	HealedAt   sim.Time // all surviving switches reprogrammed
}

// NewResweeper wraps an existing Discoverer (whose delivery hook is
// reused across sweeps) in a periodic healing loop.
func NewResweeper(s *sim.Simulator, disc *Discoverer, period sim.Time) *Resweeper {
	if period <= 0 {
		panic("sm: non-positive resweep period")
	}
	r := &Resweeper{
		sim:            s,
		disc:           disc,
		period:         period,
		edges:          make(topology.EdgeSet),
		pins:           make(map[uint64]packet.LID),
		SweepLatency:   metrics.NewRecorder(0, 10_000, 200),
		RerouteLatency: metrics.NewRecorder(0, 10_000, 200),
	}
	r.Counters.Bind(&resweepCounters, r.ctr[:])
	r.lostEdge, r.probed, r.configured = r.onLostEdge, r.onProbed, r.onConfigured
	return r
}

// PrimeStatic seeds the healthy view and LID pins from a statically
// configured mesh, so the first periodic sweep diffs against the real
// initial fabric instead of adopting whatever it happens to find.
func (r *Resweeper) PrimeStatic(m *topology.Mesh) {
	r.edges = m.Edges()
	for _, h := range m.HCAs {
		r.pins[h.GUID()] = h.LID()
	}
}

// Start begins periodic sweeping; Stop cancels it.
func (r *Resweeper) Start() {
	if r.stop != nil {
		return
	}
	r.stop = r.sim.Every(r.period, r.tick)
}

// Stop cancels the periodic sweep.
func (r *Resweeper) Stop() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
}

func (r *Resweeper) tick() {
	if r.sweeping {
		return
	}
	r.sweeping = true
	r.Counters.Add(ResweepSweeps, 1)
	r.start, r.detectedAt = r.sim.Now(), 0

	r.disc.Reset()
	r.disc.Pins = r.pins
	r.disc.KnownEdges = r.edges
	r.disc.OnLostEdge = r.lostEdge
	r.disc.Probe(r.probed)
}

// onLostEdge notes the sweep's first terminal timeout on a known edge.
func (r *Resweeper) onLostEdge(uint64, int) {
	if r.detectedAt == 0 {
		r.detectedAt = r.sim.Now()
		r.Counters.Add(ResweepDetections, 1)
	}
}

// onProbed diffs the probed graph against the healthy view and, on a
// change, reprograms the fabric.
func (r *Resweeper) onProbed(topo *DiscoveredTopology) {
	r.SweepLatency.Add((r.sim.Now() - r.start).Microseconds())
	if r.Quarantined != nil {
		for _, h := range r.Quarantined() {
			delete(topo.Edges, h)
		}
	}
	r.lost, r.gained = diffEdges(r.edges, topo.Edges)
	if r.lost == 0 && r.gained == 0 {
		r.sweeping = false
		return
	}
	r.Counters.Add(ResweepLostLinks, uint64(r.lost))
	r.Counters.Add(ResweepRestoredLinks, uint64(r.gained))
	if r.detectedAt == 0 {
		// Pure restoration: nothing timed out, the change is only
		// visible once the sweep completes.
		r.detectedAt = r.sim.Now()
	}
	r.disc.Configure(r.configured)
}

// onConfigured adopts the reprogrammed graph as the healthy view.
func (r *Resweeper) onConfigured(topo *DiscoveredTopology) {
	healed := r.sim.Now()
	r.Counters.Add(ResweepReroutes, 1)
	r.RerouteLatency.Add((healed - r.detectedAt).Microseconds())
	for _, ca := range topo.CAs {
		r.pins[ca.GUID] = ca.LID
	}
	clear(r.edges)
	maps.Copy(r.edges, topo.Edges)
	r.sweeping = false
	if r.OnEvent != nil {
		r.OnEvent(HealEvent{
			Sweep:      r.Counters.Value(ResweepSweeps),
			LostEdges:  r.lost,
			NewEdges:   r.gained,
			DetectedAt: r.detectedAt,
			HealedAt:   healed,
		})
	}
}

// diffEdges counts directed edges in old-but-not-new (lost) and
// new-but-not-old (gained).
func diffEdges(old, new topology.EdgeSet) (lost, gained int) {
	for h, nbr := range old {
		if new[h] != nbr {
			lost++
		}
	}
	for h, nbr := range new {
		if old[h] != nbr {
			gained++
		}
	}
	return lost, gained
}
