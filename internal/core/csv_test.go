package core

import (
	"testing"

	"ibasec/internal/enforce"
)

// renderRow exercises each of Table's rules once; its field order is
// the column order, with an untagged field in the middle.
type renderRow struct {
	Mode    enforce.Mode `csv:"mode"`
	Mean    float64      `csv:"mean_us"`
	BER     float64      `csv:"ber,%g"`
	Forgery float64      `csv:"forgery_prob,%.6g"`
	CC      bool         `csv:"cc"`
	Note    string
	Kills   int    `csv:"kills"`
	Sent    uint64 `csv:"sent"`
	Keys    string `csv:"keys"`
}

// TestTableRendering pins Table's rules byte for byte: %.4f by default,
// a tag verb instead when there is one, on/off for a bool, %v for the
// rest, and no column for an untagged field.
func TestTableRendering(t *testing.T) {
	rows := []renderRow{
		{enforce.SIF, 1.23456, 1e-5, 0x1p-32, true, "skipped", -1, 18446744073709551615, "No Key"},
		{enforce.NoFiltering, 0, 0, 1, false, "skipped", 2, 0, "WithKey"},
	}
	tab := Table("render", rows)
	got := string(tab.Bytes())
	want := "mode,mean_us,ber,forgery_prob,cc,kills,sent,keys\n" +
		"SIF,1.2346,1e-05,2.32831e-10,on,-1,18446744073709551615,No Key\n" +
		"NoFiltering,0.0000,0,1,off,2,0,WithKey\n"
	if tab.Name != "render" || got != want {
		t.Fatalf("Table %q rendered\n%s\nwant\n%s", tab.Name, got, want)
	}
}
