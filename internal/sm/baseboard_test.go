package sm

import (
	"testing"

	"ibasec/internal/keys"
)

func TestBaseboardGuards(t *testing.T) {
	good := keys.BKey(0xABCD)
	bb := NewBaseboard(good)
	if !bb.PowerOn || bb.FirmwareVersion != 1 {
		t.Fatal("initial state")
	}
	if err := bb.SetPower(keys.BKey(1), false); err == nil {
		t.Fatal("wrong B_Key accepted")
	}
	if bb.Counters.Value(BoardBKeyViolations) != 1 {
		t.Fatal("violation not counted")
	}
	if err := bb.SetPower(good, false); err != nil {
		t.Fatal(err)
	}
	if bb.PowerOn {
		t.Fatal("power state unchanged")
	}
	if err := bb.UpdateFirmware(good, 3); err != nil {
		t.Fatal(err)
	}
	if bb.FirmwareVersion != 3 {
		t.Fatal("firmware not updated")
	}
	if err := bb.UpdateFirmware(good, 2); err == nil {
		t.Fatal("downgrade accepted")
	}
}
