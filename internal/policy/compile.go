package policy

import (
	"slices"
	"sort"

	"ibasec/internal/enforce"
)

// PartitionMember is one end port's membership in a compiled partition.
type PartitionMember struct {
	Node int
	Full bool
}

// Partition is a compiled partition: members in ascending node order,
// each with its membership class (a node selected as both full and
// limited compiles to full).
type Partition struct {
	Base    uint16
	Members []PartitionMember
}

// SwitchIntent is the complete enforcement state one switch must hold:
// its mode, valid-P_Key table (full 16-bit entries, ascending), Table 2
// model size, pinned Invalid_P_Key_Table bases (ascending), registered
// alternate-path source LIDs (ascending), and whether SIF filtering is
// active at bring-up. The drift auditor treats Valid as exact — any
// extra or missing entry is drift — and Invalid/AltSources as minimums,
// because the running SIF control loop legitimately adds entries the
// policy never declared.
type SwitchIntent struct {
	Switch       int
	Mode         enforce.Mode
	Valid        []uint16
	ModelEntries int
	Invalid      []uint16
	AltSources   []uint16
	Active       bool
}

// Digests returns the intent's three audit fingerprints in the order
// the AuditState SMP carries them.
func (si *SwitchIntent) Digests() (valid, invalid, alt uint32) {
	return enforce.Digest16(si.Valid), enforce.Digest16(si.Invalid), enforce.Digest16(si.AltSources)
}

// Intent is a compiled policy document: the exact per-device state the
// programmer installs and the auditor verifies. Partitions are in
// ascending base order and Switches in ascending switch order, so two
// compilations of the same document are deep-equal.
type Intent struct {
	Mode       enforce.Mode
	Partitions []Partition
	Switches   []SwitchIntent
}

// Switch returns the intent for one switch, or nil.
func (in *Intent) Switch(sw int) *SwitchIntent {
	for i := range in.Switches {
		if in.Switches[i].Switch == sw {
			return &in.Switches[i]
		}
	}
	return nil
}

// Compile validates doc and lowers it to per-device intent for a subnet
// of numNodes end ports (node i attached to switch i). DPT switches get
// their own copy of the subnet-wide table — per the paper's Duplicate
// Partition Table design — sized at Table 2's n×p model cost; IF and
// SIF switches get the attached node's partition set at cost p.
func Compile(doc *Document, numNodes int) (*Intent, error) {
	if err := doc.Validate(numNodes); err != nil {
		return nil, err
	}
	intent := &Intent{Mode: doc.Mode}

	// Partitions: expand port ranges, full membership winning.
	memberships := make([]int, numNodes) // node -> partitions it is in
	totalMemberships := 0
	allBases := make([]uint16, 0, len(doc.Rules))
	for _, r := range doc.Rules {
		full := make(map[int]bool)
		lim := make(map[int]bool)
		for _, pr := range r.Full {
			for n := pr.First; n <= pr.Last; n++ {
				full[n] = true
			}
		}
		for _, pr := range r.Limited {
			for n := pr.First; n <= pr.Last; n++ {
				if !full[n] {
					lim[n] = true
				}
			}
		}
		part := Partition{Base: r.Base}
		for n := 0; n < numNodes; n++ {
			if !full[n] && !lim[n] {
				continue
			}
			part.Members = append(part.Members, PartitionMember{Node: n, Full: full[n]})
			memberships[n]++
			totalMemberships++
		}
		intent.Partitions = append(intent.Partitions, part)
		allBases = append(allBases, r.Base)
	}
	sort.Slice(intent.Partitions, func(i, j int) bool {
		return intent.Partitions[i].Base < intent.Partitions[j].Base
	})
	slices.Sort(allBases)

	// The subnet-wide table every DPT switch duplicates: full-membership
	// entries, one per partition (the switch check only needs the base;
	// the full bit lets limited members' packets through, IBA 10.9.3).
	union := make([]uint16, len(allBases))
	for i, b := range allBases {
		union[i] = 0x8000 | b
	}
	// Each IF/SIF switch's table is its node's partitions, filled in base
	// order — ascending — into windows of one slab; each DPT switch's, a
	// copy of the union from another.
	own := make([][]uint16, numNodes)
	ownSlab := make([]uint16, totalMemberships)
	for n, k := range memberships {
		own[n], ownSlab = ownSlab[:0:k], ownSlab[k:]
	}
	for _, part := range intent.Partitions {
		for _, m := range part.Members {
			own[m.Node] = append(own[m.Node], 0x8000|part.Base)
		}
	}
	var unionSlab []uint16

	intent.Switches = make([]SwitchIntent, 0, numNodes)
	for sw := 0; sw < numNodes; sw++ {
		si := SwitchIntent{Switch: sw, Mode: doc.EffectiveMode(sw)}
		switch si.Mode {
		case enforce.DPT:
			if len(union) > 0 {
				if len(unionSlab) == 0 {
					unionSlab = make([]uint16, numNodes*len(union))
				}
				si.Valid, unionSlab = unionSlab[:len(union):len(union)], unionSlab[len(union):]
				copy(si.Valid, union)
			}
			si.ModelEntries = totalMemberships
		case enforce.IF, enforce.SIF:
			if len(own[sw]) > 0 {
				si.Valid = own[sw]
			}
			si.ModelEntries = len(si.Valid)
		}
		if si.Mode == enforce.SIF {
			for _, p := range doc.Pinned {
				if p.Switch == sw || p.Switch == -1 {
					si.Invalid = append(si.Invalid, p.Base)
				}
			}
			slices.Sort(si.Invalid)
			si.Invalid = slices.Compact(si.Invalid)
			si.Active = len(si.Invalid) > 0
		}
		for _, a := range doc.AltSources {
			if a.Switch == sw {
				si.AltSources = append(si.AltSources, a.Src)
			}
		}
		slices.Sort(si.AltSources)
		si.AltSources = slices.Compact(si.AltSources)
		intent.Switches = append(intent.Switches, si)
	}
	return intent, nil
}
