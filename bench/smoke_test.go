package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickRun drives the whole benchmark at -quick scale (durations /10,
// 2 repetitions, one 20 ms batch per rig) and checks the invariants a full
// run relies on: nothing fails, every declared metric is produced, the
// traced run leaves the simulation untouched and repeats exactly.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and rig (~8 s)")
	}
	dir := t.TempDir()
	o := newOptions(1, true, 5, 0, -1, dir)
	rep, err := execute(workloads, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Claim != nil {
		t.Errorf("the benchmark claims %q; it must claim nothing", *rep.Claim)
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s: no report", w.Name)
		}
		if wr.OpsFailed != 0 || wr.Ops != 3 {
			t.Errorf("%s: ops %d failed %d (%v), want 3 and 0", w.Name, wr.Ops, wr.OpsFailed, wr.Failures)
			continue
		}
		for _, layers := range []bool{false, true} {
			if _, ok := contractLine(rep, w.Name, layers); !ok {
				t.Errorf("%s: result line (layers=%v) is incomplete", w.Name, layers)
			}
		}
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.Name]; s.Median <= 0 || s.Unit != d.Unit {
				t.Errorf("%s %s = %+v, want a positive value in %s", w.Name, d.Name, s, d.Unit)
			}
		}
		var sum float64
		for name, v := range wr.Traced {
			if strings.HasPrefix(name, "est_share.") {
				sum += v.Value
			}
		}
		// One 20 ms batch per rig is coarse; a full run holds 1.0 ± 0.25.
		if sum < 0.5 || sum > 1.6 {
			t.Errorf("%s: est_share sums to %.2f", w.Name, sum)
		}

		// The traced run repeats exactly in everything but host time.
		again, err := runTraced(w, o.seed, o.scale, rep.Rigs, 1, wr.Digest, dir)
		if err != nil {
			t.Errorf("%s: second traced run: %v", w.Name, err)
			continue
		}
		for name, v := range wr.Traced {
			if v.Exact && again[name].Value != v.Value {
				t.Errorf("%s %s: %v then %v; exact values must repeat", w.Name, name, v.Value, again[name].Value)
			}
		}

		f, err := os.Open(filepath.Join(dir, "trace-"+w.Name+".jsonl"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		sc := bufio.NewScanner(f)
		var first Span
		if !sc.Scan() || json.Unmarshal(sc.Bytes(), &first) != nil || first.Name != "core.build" {
			t.Errorf("%s: trace file does not start with the core.build span", w.Name)
		}
		f.Close()
	}
	for _, d := range perLayer {
		_, rig := rep.Rigs[d.Name]
		_, traced := rep.Workloads[workloads[0].Name].Traced[d.Name]
		if rig == traced {
			t.Errorf("per-layer metric %s: from a rig %v, from the traced run %v; want exactly one", d.Name, rig, traced)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "latest.json")); err != nil {
		t.Error(err)
	}
	if err := compareFiles(filepath.Join(dir, "latest.json"), filepath.Join(dir, "latest.json")); err != nil {
		t.Errorf("a run compared with itself: %v", err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables in this package and the
// tables to the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	m := buildManifest()
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with: go run -C bench . -manifest > BENCHMARK.json")
	}

	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the contract's naming rule", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q breaks the contract's unit rule", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		check("workload", w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check("end-to-end metric", d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range m.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range m.PerLayer {
		check("per-layer metric", d.Name, d.Unit)
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// Every metric and workload is explained in the README's glossary.
func TestReadmeNamesEverything(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, d := range endToEnd {
		names = append(names, d.Name)
	}
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		if !bytes.Contains(readme, []byte("`"+name+"`")) {
			t.Errorf("README.md does not explain %s", name)
		}
	}
}
