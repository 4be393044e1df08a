package policy

import (
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

// Program compiles doc and brings the subnet to its intent through the
// Subnet Manager alone: partitions are created there (so secret
// generation, HA state sync and rotation all see them exactly as
// imperatively created ones), the SM programs every switch's table from
// that membership, and the pinned invalid keys are registered at every
// switch. The manager is left holding the marshalled document, its sync
// state under Magic, carried to HA standbys. filter must run doc.Mode:
// the document declares the mode, it does not set it.
func Program(doc *Document, manager *sm.SubnetManager, mesh *topology.Mesh, filter *enforce.Filter, mkey keys.MKey) (*Intent, error) {
	if filter == nil || filter.Mode() != doc.Mode {
		return nil, fmt.Errorf("policy: document declares %v, but the switches do not run it", doc.Mode)
	}
	intent, err := Compile(doc, mesh.NumNodes())
	if err != nil {
		return nil, err
	}
	for _, part := range intent.Partitions {
		if err := manager.CreatePartition(mkey, packet.PKey(0x8000|part.Base), part.Members); err != nil {
			return nil, fmt.Errorf("policy: creating partition %#x: %w", part.Base, err)
		}
	}
	manager.ProgramSwitchTables()
	for _, b := range doc.Pinned {
		for _, sw := range mesh.Switches {
			filter.RegisterInvalid(sw, packet.PKey(b))
		}
	}
	manager.SetSyncState(Magic, Marshal(doc))
	return intent, nil
}
