// Package policy is the declarative security-policy plane: a single
// validated document describes the subnet's intended partition layout
// (P_Key bases and their member end ports), its enforcement mode and
// the Invalid_P_Key_Table entries every switch holds from bring-up. The
// compiler lowers the document into per-device intent (internal/enforce
// switch tables, SM partitions), the programmer applies that intent
// through the Subnet Manager, and the drift auditor continuously
// verifies the fabric against it with in-band audit SMPs (internal/sm
// audit attributes), repairing divergence entry by entry.
//
// The paper's section 3.3 designs (DPT/IF/SIF) configure switches
// imperatively at bring-up and then trust them; the policy plane makes
// the intended state first-class so corruption of switch state — the
// Table 3 threat of an attacker with management access — is detected and
// reversed instead of persisting silently.
package policy

import (
	"fmt"

	"ibasec/internal/enforce"
)

// PortRange selects a contiguous range of end-port (node) indices,
// inclusive on both ends. A single node is First == Last.
type PortRange struct {
	First, Last int
}

// Rule declares one partition: its 15-bit P_Key base and the end ports
// that join it, every one a full member.
type Rule struct {
	// Name identifies the rule in diagnostics; unique per document.
	Name string
	// Base is the partition's 15-bit P_Key base value.
	Base uint16
	// Full selects member end ports by node index.
	Full []PortRange
}

// Document is a complete declarative security policy for one subnet.
type Document struct {
	// Version is the document schema version; currently 1.
	Version int
	// Mode is the enforcement design every switch runs.
	Mode  enforce.Mode
	Rules []Rule
	// Pinned lists the P_Key bases pre-registered in every switch's
	// Invalid_P_Key_Table at bring-up, arming SIF filtering against a
	// known hostile key before any trap fires (SIF only).
	Pinned []uint16
}

// CurrentVersion is the schema version this package compiles.
const CurrentVersion = 1

// Validate checks the document against a subnet of numNodes end ports
// (one switch per node, the testbed topology). It is the only gate
// between a policy author and the fabric, so it rejects everything the
// compiler would otherwise have to guess about.
func (d *Document) Validate(numNodes int) error {
	if numNodes <= 0 {
		return fmt.Errorf("policy: subnet has %d nodes", numNodes)
	}
	if d.Version != CurrentVersion {
		return fmt.Errorf("policy: unsupported document version %d", d.Version)
	}
	if d.Mode < enforce.NoFiltering || d.Mode > enforce.SIF {
		return fmt.Errorf("policy: unknown enforcement mode %d", int(d.Mode))
	}
	if len(d.Rules) == 0 {
		return fmt.Errorf("policy: document declares no partitions")
	}

	seenName := make(map[string]bool, len(d.Rules))
	seenBase := make(map[uint16]bool, len(d.Rules))
	for _, r := range d.Rules {
		if r.Name == "" {
			return fmt.Errorf("policy: rule with empty name")
		}
		if seenName[r.Name] {
			return fmt.Errorf("policy: duplicate rule name %q", r.Name)
		}
		seenName[r.Name] = true
		if r.Base == 0 || r.Base >= 0x8000 {
			return fmt.Errorf("policy: rule %q base %#x outside (0, 0x8000)", r.Name, r.Base)
		}
		if seenBase[r.Base] {
			return fmt.Errorf("policy: P_Key base %#x declared twice", r.Base)
		}
		seenBase[r.Base] = true
		for _, pr := range r.Full {
			if pr.First < 0 || pr.Last >= numNodes || pr.First > pr.Last {
				return fmt.Errorf("policy: rule %q selects ports [%d,%d] outside [0,%d]",
					r.Name, pr.First, pr.Last, numNodes-1)
			}
		}
		if len(r.Full) == 0 {
			return fmt.Errorf("policy: rule %q has no members", r.Name)
		}
	}

	if len(d.Pinned) > 0 && d.Mode != enforce.SIF {
		return fmt.Errorf("policy: pinned invalid keys but the subnet runs %v, not SIF", d.Mode)
	}
	for _, b := range d.Pinned {
		if b == 0 || b >= 0x8000 {
			return fmt.Errorf("policy: pinned invalid base %#x outside (0, 0x8000)", b)
		}
		if seenBase[b] {
			return fmt.Errorf("policy: pinned invalid base %#x is also a declared partition", b)
		}
	}
	return nil
}
