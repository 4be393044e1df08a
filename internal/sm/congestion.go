package sm

import (
	"encoding/binary"
	"fmt"

	"ibasec/internal/fabric"
	"ibasec/internal/sim"
)

// This file implements the control plane of the IBA Congestion Control
// Annex (A10): the subnet manager's congestion-control manager, which
// programs switch marking thresholds and HCA congestion control tables
// at bring-up, re-programs them after failover from the state-synced
// configuration blob, and answers congestion log queries over the
// programmed fabric.

// CCMagic opens every encoded congestion-control configuration and
// names the congestion plane's sync state on its SM (SetSyncState).
const CCMagic = "IBCC"

// ccBlobVersion is the current encoding version.
const ccBlobVersion = 1

// ccBlobSize is the fixed encoded size: magic(4), version(1),
// threshold(2), cctSize(2), cctStep(8), cctDecay(8).
const ccBlobSize = 25

// EncodeCCBlob renders a congestion-control configuration into the
// deterministic wire form carried by HA state sync.
func EncodeCCBlob(cc fabric.CCParams) []byte {
	b := make([]byte, ccBlobSize)
	copy(b, CCMagic)
	b[4] = ccBlobVersion
	binary.BigEndian.PutUint16(b[5:7], uint16(cc.MarkingThreshold))
	binary.BigEndian.PutUint16(b[7:9], uint16(cc.CCTSize))
	binary.BigEndian.PutUint64(b[9:17], uint64(cc.CCTStep))
	binary.BigEndian.PutUint64(b[17:25], uint64(cc.CCTDecay))
	return b
}

// ParseCCBlob decodes an encoded congestion-control configuration,
// rejecting truncated, mis-tagged, or over-long blobs.
func ParseCCBlob(b []byte) (fabric.CCParams, error) {
	if len(b) < len(CCMagic) || string(b[:len(CCMagic)]) != CCMagic {
		return fabric.CCParams{}, fmt.Errorf("sm: not a congestion-control blob")
	}
	if len(b) != ccBlobSize {
		return fabric.CCParams{}, fmt.Errorf("sm: congestion-control blob length %d, want %d", len(b), ccBlobSize)
	}
	if b[4] != ccBlobVersion {
		return fabric.CCParams{}, fmt.Errorf("sm: congestion-control blob version %d, want %d", b[4], ccBlobVersion)
	}
	return fabric.CCParams{
		MarkingThreshold: int(binary.BigEndian.Uint16(b[5:7])),
		CCTSize:          int(binary.BigEndian.Uint16(b[7:9])),
		CCTStep:          sim.Time(binary.BigEndian.Uint64(b[9:17])),
		CCTDecay:         sim.Time(binary.BigEndian.Uint64(b[17:25])),
	}, nil
}

// ProgramCongestionControl writes the marking threshold into every
// switch and the CCT parameters into every HCA the SM currently serves
// (the whole fabric, or its island when scoped), charging one
// configuration MAD per device, and leaves the encoded blob on the SM
// (under CCMagic) so HA state sync carries it to standbys. The zero
// value un-programs devices — the off switch. Idempotent; a promoted
// standby calls it again with the configuration parsed from the blob it
// inherited.
func (m *SubnetManager) ProgramCongestionControl(cc fabric.CCParams) {
	for i, sw := range m.mesh.Switches {
		if !m.InIsland(i) {
			continue
		}
		sw.SetCongestionControl(cc.MarkingThreshold)
		m.Counters.Add(SMCCProgramMADs, 1)
	}
	for i, hca := range m.mesh.HCAs {
		if !m.InIsland(i) {
			continue
		}
		hca.SetCongestionControl(cc)
		m.Counters.Add(SMCCProgramMADs, 1)
	}
	var blob []byte
	if cc.Enabled() {
		blob = EncodeCCBlob(cc)
	}
	m.SetSyncState(CCMagic, blob)
}

// CongestionTreeSpan returns the number of served switches with any
// marking activity — the blast-radius metric the congestion experiment
// sweeps. It reads each served switch's marks, as one congestion log
// query (the annex's SwitchCongestionLog attribute) would.
func (m *SubnetManager) CongestionTreeSpan() int {
	span := 0
	for i, sw := range m.mesh.Switches {
		if !m.InIsland(i) {
			continue
		}
		if sw.FECNMarkedTotal() != 0 {
			span++
		}
	}
	return span
}
