package sm

import (
	"fmt"

	"ibasec/internal/keys"
	"ibasec/internal/metrics"
)

// Baseboard models a node's baseboard-management agent: the entity that
// IBA's B_Key protects (Table 3: "Since B_Key controls hardware of nodes
// and switch, a malicious user having B_Key can change hardware
// configuration"). Operations are accepted iff the caller presents the
// current B_Key; like all IBA keys it travels in plaintext, which is the
// vulnerability the paper's key-confidentiality design addresses.
type Baseboard struct {
	bkey keys.BKey

	// PowerOn reflects the simulated hardware power state.
	PowerOn bool
	// FirmwareVersion is the installed firmware revision.
	FirmwareVersion int

	Counters metrics.Set[BoardCounter]
	ctr      [numBoardCounters]uint64 // Counters' cells
}

// NewBaseboard returns a powered-on baseboard guarded by bkey.
func NewBaseboard(bkey keys.BKey) *Baseboard {
	b := &Baseboard{bkey: bkey, PowerOn: true, FirmwareVersion: 1}
	b.Counters.Bind(&boardCounters, b.ctr[:])
	return b
}

// check validates the presented B_Key.
func (b *Baseboard) check(k keys.BKey) error {
	if k != b.bkey {
		b.Counters.Add(BoardBKeyViolations, 1)
		return fmt.Errorf("sm: B_Key mismatch")
	}
	return nil
}

// SetPower changes the node's power state (the classic baseboard attack:
// power-cycling a victim).
func (b *Baseboard) SetPower(k keys.BKey, on bool) error {
	if err := b.check(k); err != nil {
		return err
	}
	b.PowerOn = on
	return nil
}

// UpdateFirmware installs a new firmware revision.
func (b *Baseboard) UpdateFirmware(k keys.BKey, version int) error {
	if err := b.check(k); err != nil {
		return err
	}
	if version <= b.FirmwareVersion {
		return fmt.Errorf("sm: firmware downgrade %d -> %d rejected", b.FirmwareVersion, version)
	}
	b.FirmwareVersion = version
	return nil
}
