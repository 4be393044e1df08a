package main

import (
	"reflect"
	"testing"

	"ibasec"
)

// Every listed field must exist on Results with a scalar kind the digest
// can render. This is the test that fails when a refactor renames or
// removes a field the benchmark's correctness check depends on.
func TestDigestFieldsExist(t *testing.T) {
	typ := reflect.TypeOf(ibasec.Results{})
	seen := map[string]bool{}
	for _, name := range digestFields {
		if seen[name] {
			t.Errorf("field %q listed twice", name)
		}
		seen[name] = true
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("Results has no field %q", name)
		}
	}
	lines, err := digestLines(0, &ibasec.Results{})
	if err != nil {
		t.Fatal(err)
	}
	// hops, the listed fields, and N+Mean for four delay accumulators.
	if want := 1 + len(digestFields) + 8; len(lines) != want {
		t.Errorf("digest covers %d lines, want %d", len(lines), want)
	}
}

// Changing hops or any one listed field must change the digest.
func TestDigestCoversEveryField(t *testing.T) {
	base := resultDigest(7, &ibasec.Results{})
	if got := resultDigest(7, &ibasec.Results{}); got != base {
		t.Fatalf("digest is not deterministic: %s vs %s", got, base)
	}
	if resultDigest(8, &ibasec.Results{}) == base {
		t.Error("digest ignores hops")
	}
	for _, name := range digestFields {
		var res ibasec.Results
		f := reflect.ValueOf(&res).Elem().FieldByName(name)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		default:
			f.SetUint(1)
		}
		if resultDigest(7, &res) == base {
			t.Errorf("digest ignores field %q", name)
		}
	}
	var res ibasec.Results
	res.BestEffort.AddSample(1.5, 2.5)
	if resultDigest(7, &res) == base {
		t.Error("digest ignores the delay statistics")
	}
}
