package sm

import (
	"fmt"

	"ibasec/internal/keys"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// RotationConfig configures online key-epoch rotation (partition-level
// management only: QP-level secrets are issued per connection and die
// with it, so periodic re-issue applies to the long-lived partition
// secrets). The zero value disables rotation: secrets stay at epoch 0
// forever, exactly the pre-rotation behaviour.
type RotationConfig struct {
	// Period is the rollover interval: every Period the SM rotates every
	// partition secret to epoch e+1. Zero disables rotation.
	Period sim.Time
	// Grace is how long after a rollover receivers keep accepting the
	// previous epoch; zero defaults to Period/4. It must cover
	// DistributionDelay plus packet flight time or in-flight traffic
	// signed under epoch e is rejected (counted as auth_epoch_expired — a
	// grace-window miss). A split-brain merge keeps a partitioned-off
	// island's epochs acceptable for the same window.
	Grace sim.Time
	// DistributionDelay models the envelope-distribution latency: the
	// time between the authority minting epoch e+1 and every member's
	// store holding it.
	DistributionDelay sim.Time
}

// Enabled reports whether rotation runs.
func (c RotationConfig) Enabled() bool { return c.Period > 0 }

// WithDefaults returns c with its zero Grace resolved.
func (c RotationConfig) WithDefaults() RotationConfig {
	if c.Grace == 0 {
		c.Grace = c.Period / 4
	}
	return c
}

// Validate reports a negative period and the configuration errors of an
// enabled config; a disabled one has nothing else to check. Rotation may
// start as late as start (a run's end), and a period whose first
// rollover from there would pass sim.MaxTime is refused.
func (c RotationConfig) Validate(start sim.Time) error {
	if c.Period < 0 {
		return fmt.Errorf("sm: negative rotation period %v", c.Period)
	}
	if !c.Enabled() {
		return nil
	}
	if c.Period > sim.MaxTime-start {
		return fmt.Errorf("sm: rotation period %v, starting as late as %v, ends past the simulator's largest time %v", c.Period, start, sim.MaxTime)
	}
	c = c.WithDefaults()
	if c.Grace <= 0 || c.Grace >= c.Period {
		return fmt.Errorf("sm: rotation grace %v must be in (0, period %v)", c.Grace, c.Period)
	}
	if c.DistributionDelay < 0 || c.DistributionDelay >= c.Grace {
		return fmt.Errorf("sm: distribution delay %v must be in [0, grace %v)", c.DistributionDelay, c.Grace)
	}
	return nil
}

// Rotator drives periodic and forced (KeyCompromise) key-epoch rotation
// through a SubnetManager's authority and distribution hooks. It survives
// SM failover via Rebind: the HA coordinator points it at the newly
// elected master, and the shared authority keeps epochs monotonic across
// the handover.
type Rotator struct {
	sim *sim.Simulator
	m   *SubnetManager
	cfg RotationConfig

	stop func()
	// free holds the rotation records no event refers to any more.
	free []*rotation

	// Counters: epoch_rollovers (whole-fabric rotation rounds),
	// forced_rotations (KeyCompromise responses).
	Counters metrics.Set[RotatorCounter]
	ctr      [numRotatorCounters]uint64 // Counters' cells
}

// NewRotator prepares rotation driven by m's authority, with cfg's
// defaults resolved. Start launches the periodic rollover.
func NewRotator(s *sim.Simulator, m *SubnetManager, cfg RotationConfig) (*Rotator, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("sm: rotation period must be positive")
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(s.Now()); err != nil {
		return nil, err
	}
	if m.Authority == nil {
		return nil, fmt.Errorf("sm: rotation requires a partition authority")
	}
	r := &Rotator{sim: s, m: m, cfg: cfg}
	r.Counters.Bind(&rotatorCounters, r.ctr[:])
	return r, nil
}

// Start begins periodic rollover; Stop cancels it.
func (r *Rotator) Start() {
	if r.stop == nil {
		r.stop = r.sim.Every(r.cfg.Period, r.rotateAll)
	}
}

// Stop cancels the periodic rollover (already-scheduled installs and
// retires still fire).
func (r *Rotator) Stop() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
}

// Rebind points the rotator at a newly elected master SM so subsequent
// rollovers use its membership view and distribution hooks.
func (r *Rotator) Rebind(m *SubnetManager) { r.m = m }

// ForceRotate is the KeyCompromise response path: rotate a single
// partition out-of-cycle. The grace window still applies, so holders of
// the compromised epoch retain access only until retirement.
func (r *Rotator) ForceRotate(pk packet.PKey) error {
	r.Counters.Add(RotForcedRotations, 1)
	return r.rotate(pk)
}

// rotateAll rolls every partition to its next epoch, in ascending P_Key
// order for determinism.
func (r *Rotator) rotateAll() {
	r.Counters.Add(RotEpochRollovers, 1)
	for i := range r.m.partitions { // rotate leaves the partition table alone
		if err := r.rotate(packet.PKey(0x8000 | r.m.partitions[i].base)); err != nil {
			panic(err)
		}
	}
}

// rotate mints epoch e+1 for one partition, schedules its installation on
// every member after DistributionDelay, and schedules retirement of epoch
// e after Grace.
func (r *Rotator) rotate(pk packet.PKey) error {
	m := r.m
	if m.Authority == nil {
		return fmt.Errorf("sm: rotation requires a partition authority")
	}
	fresh, epoch, err := m.Authority.RotateEpoch(pk)
	if err != nil {
		return err
	}
	rot := r.newRotation()
	rot.m, rot.pk, rot.fresh, rot.epoch = m, pk, fresh, epoch
	rot.members = m.appendIslandMembers(rot.members[:0], pk)
	rot.due = 2
	r.sim.ScheduleCall(r.cfg.DistributionDelay, (*installEpoch)(r), rot, 0)
	r.sim.ScheduleCall(r.cfg.Grace, (*retireEpoch)(r), rot, 0)
	return nil
}

// rotation is one partition's epoch in flight: minted by m, installed on
// the members (as of the mint) after DistributionDelay, its predecessor
// retired on them after Grace. Records are pooled, so a rollover
// allocates nothing once as many are in flight as ever were.
type rotation struct {
	m       *SubnetManager
	pk      packet.PKey
	fresh   keys.SecretKey
	epoch   uint32
	members []int
	due     int // events yet to fire
}

func (r *Rotator) newRotation() *rotation {
	if n := len(r.free); n > 0 {
		rot := r.free[n-1]
		r.free = r.free[:n-1]
		return rot
	}
	return new(rotation)
}

// fired returns rot to the pool once both its events have fired.
func (r *Rotator) fired(rot *rotation) {
	if rot.due--; rot.due == 0 {
		r.free = append(r.free, rot)
	}
}

// installEpoch and retireEpoch are a rotation's two events: named handler
// types over Rotator (see sim.Handler) whose operand is the record.
type (
	installEpoch Rotator
	retireEpoch  Rotator
)

func (h *installEpoch) Fire(arg any, _ uint64) {
	rot := arg.(*rotation)
	if m := rot.m; m.InstallSecret != nil {
		for _, n := range rot.members {
			m.InstallSecret(n, rot.pk, rot.fresh, rot.epoch)
		}
	}
	(*Rotator)(h).fired(rot)
}

func (h *retireEpoch) Fire(arg any, _ uint64) {
	rot := arg.(*rotation)
	if m := rot.m; m.RetireSecret != nil {
		for _, n := range rot.members {
			m.RetireSecret(n, rot.pk, rot.epoch-1)
		}
	}
	(*Rotator)(h).fired(rot)
}
