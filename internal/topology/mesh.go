// Package topology builds the paper's testbed network: a W×H mesh of
// 5-port switches, each with one HCA on its local port, dimension-ordered
// (X then Y) routing, and LIDs assigned sequentially to HCAs (section 3.1:
// "a 16-node mesh network designed using 5-port switches and an HCA").
package topology

import (
	"fmt"
	"strconv"
	"strings"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Switch port convention for mesh switches.
const (
	PortHCA   = 0
	PortEast  = 1 // +x
	PortWest  = 2 // -x
	PortSouth = 3 // +y
	PortNorth = 4 // -y
)

// Mesh is a W×H switch mesh with one HCA per switch.
type Mesh struct {
	W, H     int
	Switches []*fabric.Switch // index y*W+x
	HCAs     []*fabric.HCA    // index y*W+x
}

// LIDOf returns the LID assigned to node i (LID 0 is reserved).
func LIDOf(i int) packet.LID { return packet.LID(i + 1) }

// NewMesh constructs and fully wires the mesh, including static LID
// assignment and dimension-ordered routing tables. Use NewBlankMesh to
// get an unconfigured fabric for in-band subnet discovery.
func NewMesh(s *sim.Simulator, params *fabric.Params, w, h int) *Mesh {
	m := NewBlankMesh(s, params, w, h)
	for i := range m.HCAs {
		m.HCAs[i].SetLID(LIDOf(i))
	}
	m.programDOR()
	return m
}

// NewBlankMesh wires the switches, HCAs and links of a W×H mesh but
// assigns no LIDs and programs no routes: the state of a fabric at power
// on, before the Subnet Manager has swept it.
func NewBlankMesh(s *sim.Simulator, params *fabric.Params, w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", w, h))
	}
	// One allocation per kind of object (fabric.NewSwitches, NewHCAs,
	// NewLinks), each forwarding table sized for the LIDs NewMesh assigns.
	n := w * h
	names := meshNames(w, h)
	m := &Mesh{
		W:        w,
		H:        h,
		Switches: fabric.NewSwitches(s, params, n, 5, n+1, names),
		HCAs:     fabric.NewHCAs(s, params, n, func(i int) string { return names(n + i) }),
	}
	for i := 0; i < n; i++ {
		m.Switches[i].SetGUID(0x5100_0000 + uint64(i))
		m.HCAs[i].SetGUID(0xCA00_0000 + uint64(i))
	}
	// Wire HCAs and inter-switch links.
	links := fabric.NewLinks(s, params, n+(w-1)*h+w*(h-1))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			links.Connect(m.HCAs[i], 0, m.Switches[i], PortHCA)
			m.Switches[i].MarkIngress(PortHCA)
			if x+1 < w {
				links.Connect(m.Switches[i], PortEast, m.Switches[y*w+x+1], PortWest)
			}
			if y+1 < h {
				links.Connect(m.Switches[i], PortSouth, m.Switches[(y+1)*w+x], PortNorth)
			}
		}
	}
	return m
}

// meshNames returns the names of a w×h mesh's devices — switch i is
// "sw<x>-<y>", HCA i is "hca<i>" at index w*h+i — as substrings of one
// string.
func meshNames(w, h int) func(i int) string {
	n := w * h
	ends := make([]int32, 2*n)
	var b strings.Builder
	b.Grow(n * len("sw999-999hca999999"))
	var num [20]byte
	for i := range ends {
		if i < n {
			b.WriteString("sw")
			b.Write(strconv.AppendInt(num[:0], int64(i%w), 10))
			b.WriteByte('-')
			b.Write(strconv.AppendInt(num[:0], int64(i/w), 10))
		} else {
			b.WriteString("hca")
			b.Write(strconv.AppendInt(num[:0], int64(i-n), 10))
		}
		ends[i] = int32(b.Len())
	}
	all := b.String()
	return func(i int) string {
		start := int32(0)
		if i > 0 {
			start = ends[i-1]
		}
		return all[start:ends[i]]
	}
}

// programDOR installs dimension-ordered (X then Y) routing tables for the
// static LID assignment.
func (m *Mesh) programDOR() {
	for sy := 0; sy < m.H; sy++ {
		for sx := 0; sx < m.W; sx++ {
			sw := m.Switches[sy*m.W+sx]
			for ti := 0; ti < m.W*m.H; ti++ {
				tx, ty := ti%m.W, ti/m.W
				var port int
				switch {
				case tx > sx:
					port = PortEast
				case tx < sx:
					port = PortWest
				case ty > sy:
					port = PortSouth
				case ty < sy:
					port = PortNorth
				default:
					port = PortHCA
				}
				sw.SetRoute(LIDOf(ti), port)
			}
		}
	}
}

// NumNodes returns the number of HCAs.
func (m *Mesh) NumNodes() int { return len(m.HCAs) }

// HCA returns node i's HCA.
func (m *Mesh) HCA(i int) *fabric.HCA { return m.HCAs[i] }

// SwitchOf returns the switch node i is attached to.
func (m *Mesh) SwitchOf(i int) *fabric.Switch { return m.Switches[i] }

// NodeByLID returns the node index for a LID, or -1.
func (m *Mesh) NodeByLID(lid packet.LID) int {
	i := int(lid) - 1
	if i < 0 || i >= len(m.HCAs) {
		return -1
	}
	return i
}

// SetFilterAll installs a partition-enforcement filter on every switch.
func (m *Mesh) SetFilterAll(f fabric.Filter) {
	for _, sw := range m.Switches {
		sw.SetFilter(f)
	}
}

// Hops returns the number of switches a packet from node a to node b
// traverses under dimension-ordered routing.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := a%m.W, a/m.W
	bx, by := b%m.W, b/m.W
	dx, dy := bx-ax, by-ay
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy + 1 // +1: the destination's own switch
}
