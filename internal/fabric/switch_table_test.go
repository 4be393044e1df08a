package fabric

import (
	"strings"
	"testing"

	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// panicMessage runs f and returns what it panicked with ("" if nothing).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	f()
	return ""
}

// The ingress table is indexed by port: a write to a port the switch
// does not have is a wiring bug and panics naming the switch, as
// SetRoute always has; a read out of range is simply "not ingress".
func TestIngressTablePortBounds(t *testing.T) {
	const nports = 5
	for _, port := range []int{-1, 0, nports - 1, nports} {
		valid := port >= 0 && port < nports
		sw := NewSwitch(sim.New(), DefaultParams(), "sw-under-test", nports)
		if sw.IsIngress(port) {
			t.Errorf("IsIngress(%d) true on a fresh switch", port)
		}
		msg := panicMessage(func() { sw.MarkIngress(port) })
		switch {
		case valid && msg != "":
			t.Errorf("MarkIngress(%d) panicked: %s", port, msg)
		case !valid && !strings.Contains(msg, "sw-under-test"):
			t.Errorf("MarkIngress(%d) panic %q does not name the switch", port, msg)
		}
		if got := sw.IsIngress(port); got != valid {
			t.Errorf("IsIngress(%d) = %v after MarkIngress, want %v", port, got, valid)
		}
	}
	sw := NewSwitch(sim.New(), DefaultParams(), "sw-under-test", nports)
	if msg := panicMessage(func() { sw.SetRoute(1, nports) }); !strings.Contains(msg, "sw-under-test") {
		t.Errorf("SetRoute to port %d panic %q does not name the switch", nports, msg)
	}
}

// The linear forwarding table is safe at both ends of the LID space and
// grows only on SetRoute.
func TestForwardingTableLIDBounds(t *testing.T) {
	for _, lid := range []packet.LID{0, 1, 0x1010, 0xFFFF} {
		sw := NewSwitch(sim.New(), DefaultParams(), "sw", 5)
		if port, ok := sw.Route(lid); ok || port != 0 {
			t.Errorf("LID %#x: Route on a fresh switch = (%d, %v)", lid, port, ok)
		}
		sw.ClearRoute(lid) // clearing an entry that was never set is a no-op
		if len(sw.fwd) != 0 {
			t.Errorf("LID %#x: Route/ClearRoute grew the table to %d entries", lid, len(sw.fwd))
		}

		// Port 0 is a real port: the table must tell it from "no route".
		for _, port := range []int{0, 4} {
			sw.SetRoute(lid, port)
			if got, ok := sw.Route(lid); !ok || got != port {
				t.Errorf("LID %#x: Route after SetRoute(%d) = (%d, %v)", lid, port, got, ok)
			}
		}
		if len(sw.fwd) != int(lid)+1 {
			t.Errorf("LID %#x: table holds %d entries, want %d", lid, len(sw.fwd), int(lid)+1)
		}
		if lid > 0 {
			if _, ok := sw.Route(lid - 1); ok {
				t.Errorf("LID %#x: growing the table routed LID %#x", lid, lid-1)
			}
		}

		sw.ClearRoute(lid)
		if _, ok := sw.Route(lid); ok {
			t.Errorf("LID %#x: still routed after ClearRoute", lid)
		}
	}
}
