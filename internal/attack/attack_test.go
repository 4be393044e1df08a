package attack

import (
	"strings"
	"testing"

	"ibasec/internal/transport"
)

// The whole point of the paper: every key-theft attack succeeds against
// plain IBA and fails once the ICRC field carries a MAC.
func TestPKeyTheft(t *testing.T) {
	o := PKeyTheft(1)
	if !o.SucceededPlain {
		t.Fatal("stolen P_Key should break plain IBA partition isolation")
	}
	if o.SucceededAuth {
		t.Fatal("stolen P_Key should be useless against authenticated IBA")
	}
}

// TestStealState pins what a theft leaves behind: the attacker holds the
// victim P_Key but no secret for it, and every member left holds the
// partition secret the eviction rotated to.
func TestStealState(t *testing.T) {
	cl := world(8, transport.PartitionLevel)
	steal(cl)
	if !cl.Mesh.HCA(attacker).PKeyTable.Check(victimPKey) {
		t.Fatal("the attacker's HCA does not hold the stolen P_Key")
	}
	if _, ok := cl.Endpoints[attacker].Store.PartitionSecret(victimPKey); ok {
		t.Fatal("the evicted attacker still holds a partition secret")
	}
	cur, ok := cl.SM.Authority.CurrentKey(victimPKey)
	if !ok || cur.Epoch != 1 {
		t.Fatalf("authority key for %#x: epoch %d (present %v), want a rotation to epoch 1", victimPKey, cur.Epoch, ok)
	}
	for _, node := range []int{0, 2, 3} {
		store := cl.Endpoints[node].Store
		epoch, _ := store.PartitionEpoch(victimPKey)
		key, ok := store.PartitionSecret(victimPKey)
		if !ok || epoch != cur.Epoch || *key != cur.Key {
			t.Errorf("node %d holds epoch %d (present %v), want the rotated epoch %d key", node, epoch, ok, cur.Epoch)
		}
	}
}

func TestQKeyTheft(t *testing.T) {
	o := QKeyTheft(2)
	if !o.SucceededPlain {
		t.Fatal("stolen Q_Key should hijack a plain datagram QP")
	}
	if o.SucceededAuth {
		t.Fatal("stolen Q_Key should fail against an auth-required QP")
	}
}

func TestRKeyTheft(t *testing.T) {
	o := RKeyTheft(3)
	if !o.SucceededPlain {
		t.Fatal("stolen R_Key should corrupt memory on plain IBA")
	}
	if o.SucceededAuth {
		t.Fatal("stolen R_Key should fail under QP-level authentication")
	}
}

func TestMKeyTheft(t *testing.T) {
	o := MKeyTheft(4)
	if !o.SucceededPlain {
		t.Fatal("a captured M_Key must grant full control (that is the threat)")
	}
	if o.SucceededAuth {
		t.Fatal("a guessed M_Key must be rejected")
	}
}

func TestBKeyTheft(t *testing.T) {
	o := BKeyTheft(6)
	if !o.SucceededPlain {
		t.Fatal("stolen B_Key should own the baseboard on plain IBA")
	}
	if o.SucceededAuth {
		t.Fatal("guessed B_Key should be rejected")
	}
}

func TestReplay(t *testing.T) {
	o := Replay(5)
	if !o.SucceededPlain {
		t.Fatal("replay should succeed without nonce tracking (section 7)")
	}
	if o.SucceededAuth {
		t.Fatal("replay should fail with the PSN nonce extension")
	}
}

func TestMatrix(t *testing.T) {
	rows := Matrix(7)
	if len(rows) != 6 {
		t.Fatalf("matrix rows = %d", len(rows))
	}
	keys := map[string]bool{}
	for _, o := range rows {
		keys[o.Key] = true
		if !o.SucceededPlain {
			t.Errorf("%s: plain IBA unexpectedly resisted", o.Key)
		}
		if o.SucceededAuth {
			t.Errorf("%s: defence failed", o.Key)
		}
		s := o.String()
		if !strings.Contains(s, o.Key) || !strings.Contains(s, "blocked") {
			t.Errorf("String() = %q", s)
		}
	}
	for _, want := range []string{"M_Key", "B_Key", "P_Key", "Q_Key", "R_Key", "(replay)"} {
		if !keys[want] {
			t.Errorf("missing row %s", want)
		}
	}
}
