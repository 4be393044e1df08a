package policy

import (
	"slices"

	"ibasec/internal/enforce"
)

// Partition is a compiled partition: its base and its member nodes in
// ascending order.
type Partition struct {
	Base    uint16
	Members []int
}

// SwitchIntent is the complete enforcement state one switch must hold:
// its valid-P_Key table (full 16-bit entries, ascending), Table 2 model
// size, pinned Invalid_P_Key_Table bases (ascending), and whether SIF
// filtering is active at bring-up. The drift auditor treats Valid as
// exact — any extra or missing entry is drift — and Invalid as a
// minimum, because the running SIF control loop legitimately adds
// entries the policy never declared.
type SwitchIntent struct {
	Switch       int
	Valid        []uint16
	ModelEntries int
	Invalid      []uint16
	Active       bool
}

// Digests returns the intent's valid and invalid table fingerprints, as
// the AuditState SMP carries them.
func (si *SwitchIntent) Digests() (valid, invalid uint32) {
	return enforce.Digest16(si.Valid), enforce.Digest16(si.Invalid)
}

// Intent is a compiled policy document: the exact per-device state the
// programmer installs and the auditor verifies. Partitions are in
// ascending base order and Switches in ascending switch order, so two
// compilations of the same document are deep-equal. Switches share
// their table slices: the intent is only read.
type Intent struct {
	Mode       enforce.Mode
	Partitions []Partition
	Switches   []SwitchIntent
}

// Compile validates doc and lowers it to per-device intent for a subnet
// of numNodes end ports (node i attached to switch i). DPT switches hold
// the subnet-wide table — per the paper's Duplicate Partition Table
// design — sized at Table 2's n×p model cost; IF and SIF switches hold
// the attached node's partition set at cost p.
func Compile(doc *Document, numNodes int) (*Intent, error) {
	if err := doc.Validate(numNodes); err != nil {
		return nil, err
	}
	intent := &Intent{Mode: doc.Mode, Partitions: make([]Partition, len(doc.Rules))}

	// Partitions: expand port ranges into ascending, duplicate-free
	// member lists. in[n] is the index+1 of the last rule that took n.
	in := make([]int, numNodes)
	memberships := make([]int, numNodes) // node -> partitions it is in
	total := 0
	for i, r := range doc.Rules {
		part := &intent.Partitions[i]
		part.Base = r.Base
		for _, pr := range r.Full {
			for n := pr.First; n <= pr.Last; n++ {
				if in[n] != i+1 {
					in[n] = i + 1
					part.Members = append(part.Members, n)
					memberships[n]++
					total++
				}
			}
		}
		slices.Sort(part.Members)
	}
	slices.SortFunc(intent.Partitions, func(a, b Partition) int { return int(a.Base) - int(b.Base) })

	// Each IF/SIF switch's table is its node's partitions, filled in base
	// order — ascending — into windows of one slab; DPT switches all hold
	// the union.
	own := make([][]uint16, numNodes)
	slab := make([]uint16, total)
	for n, k := range memberships {
		own[n], slab = slab[:0:k], slab[k:]
	}
	union := make([]uint16, len(intent.Partitions))
	for i, part := range intent.Partitions {
		union[i] = 0x8000 | part.Base
		for _, n := range part.Members {
			own[n] = append(own[n], union[i])
		}
	}
	var pins []uint16 // Validate allows pins only under SIF
	if len(doc.Pinned) > 0 {
		pins = slices.Clone(doc.Pinned)
		slices.Sort(pins)
		pins = slices.Compact(pins)
	}

	intent.Switches = make([]SwitchIntent, numNodes)
	for sw := range intent.Switches {
		si := &intent.Switches[sw]
		si.Switch = sw
		switch doc.Mode {
		case enforce.DPT:
			si.Valid, si.ModelEntries = union, total
		case enforce.IF, enforce.SIF:
			if len(own[sw]) > 0 {
				si.Valid = own[sw]
			}
			si.ModelEntries = len(si.Valid)
		}
		si.Invalid, si.Active = pins, len(pins) > 0
	}
	return intent, nil
}
