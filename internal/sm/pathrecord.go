package sm

import (
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/topology"
)

// Path records (IBA 15.2.5.16, reduced to the mesh model): the SM is the
// authority on subnet paths, and a channel adapter that wants Automatic
// Path Migration asks it for an alternate path to a destination before
// arming the connection. In this model the alternate is the Y-then-X
// mirror route addressed by the destination's alternate LID; the query
// optionally performs the SIF-critical side effect of re-registering the
// requester's source identity on every switch along that route, without
// which stateful ingress filtering drops migrated traffic cold.

// PathRecord describes one (primary, alternate) path pair to a node.
type PathRecord struct {
	DLID    packet.LID // primary, X-then-Y routed
	AltDLID packet.LID // alternate, Y-then-X routed
}

// ProgramAlternatePaths installs alternate-path (Y-then-X) forwarding
// entries for every node on every switch. Idempotent and purely
// additive; requires the management key.
func (m *SubnetManager) ProgramAlternatePaths(mkey keys.MKey) error {
	if err := m.CheckMKey(mkey); err != nil {
		return err
	}
	m.mesh.ProgramAlternatePaths()
	return nil
}

// QueryPathRecord returns the path record for src→dst and, when register
// is set and SIF alternate-path enforcement is armed, registers src's
// source identity on every switch along the alternate route so migrated
// traffic survives stateful ingress filtering. Callers arming both
// directions of a connection (data one way, acknowledgements the other)
// should query each direction.
func (m *SubnetManager) QueryPathRecord(mkey keys.MKey, src, dst int, register bool) (PathRecord, error) {
	if err := m.CheckMKey(mkey); err != nil {
		return PathRecord{}, err
	}
	n := m.mesh.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return PathRecord{}, fmt.Errorf("sm: path record for invalid pair %d->%d", src, dst)
	}
	rec := PathRecord{DLID: topology.LIDOf(dst), AltDLID: topology.AltLIDOf(dst)}
	if register && m.filter != nil && m.filter.Mode() == enforce.SIF {
		srcLID := topology.LIDOf(src)
		for _, swi := range m.mesh.AltPathSwitches(src, dst) {
			m.filter.RegisterAltSource(m.mesh.Switches[swi], srcLID)
		}
	}
	return rec, nil
}
