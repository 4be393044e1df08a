package policy

import (
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

// Program compiles doc and brings the subnet to its intent: partitions
// are created through the Subnet Manager (so secret generation, HA
// state sync and rotation all see them exactly as imperatively created
// ones), limited memberships are downgraded on the member HCAs, and
// every switch's enforcement state is installed from the compiled
// intent. The manager is left holding the marshalled document (its
// sync state under Magic, carried to HA standbys) and a ProgramTables
// hook that reapplies the compiled switch state — so a post-failover
// reprogram restores intent rather than re-deriving tables from
// membership.
func Program(doc *Document, manager *sm.SubnetManager, mesh *topology.Mesh, filter *enforce.Filter, mkey keys.MKey) (*Intent, error) {
	intent, err := Compile(doc, mesh.NumNodes())
	if err != nil {
		return nil, err
	}
	for _, part := range intent.Partitions {
		fullKey := packet.PKey(0x8000 | part.Base)
		nodes := make([]int, len(part.Members))
		for i, m := range part.Members {
			nodes[i] = m.Node
		}
		if err := manager.CreatePartition(mkey, fullKey, nodes); err != nil {
			return nil, fmt.Errorf("policy: creating partition %#x: %w", part.Base, err)
		}
		for _, m := range part.Members {
			if m.Full {
				continue
			}
			// CreatePartition added the full entry; overwrite with the
			// limited one (PartitionTable.Add replaces the membership bit).
			if err := mesh.HCA(m.Node).PKeyTable.Add(packet.PKey(part.Base)); err != nil {
				return nil, fmt.Errorf("policy: limiting node %d in %#x: %w", m.Node, part.Base, err)
			}
		}
	}
	Apply(intent, mesh, filter)
	manager.SetSyncState(Magic, Marshal(doc))
	manager.ProgramTables = func() { Apply(intent, mesh, filter) }
	return intent, nil
}

// Apply installs the compiled switch enforcement state. Every switch
// gets its own table instance — even under DPT, where the imperative
// path shares one — so state corruption and repair stay local to one
// switch, matching real hardware. Apply is idempotent and additive on
// the SIF side: reapplying restores pinned invalid entries and
// re-activates filtering without erasing registrations the running SIF
// control loop added meanwhile.
func Apply(intent *Intent, mesh *topology.Mesh, filter *enforce.Filter) {
	if filter == nil {
		return
	}
	for i := range intent.Switches {
		si := &intent.Switches[i]
		sw := mesh.Switches[si.Switch]
		filter.SetSwitchMode(sw, si.Mode)
		if si.Mode != enforce.NoFiltering {
			tbl := keys.NewPartitionTable(0)
			for _, v := range si.Valid {
				if err := tbl.Add(packet.PKey(v)); err != nil {
					panic(err) // compiled tables are far below the IBA limit
				}
			}
			filter.SetSwitchTable(sw, tbl, si.ModelEntries)
		}
		for _, b := range si.Invalid {
			filter.RegisterInvalid(sw, packet.PKey(b))
		}
		for _, src := range si.AltSources {
			filter.RegisterAltSource(sw, packet.LID(src))
		}
	}
}
