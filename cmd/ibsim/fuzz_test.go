package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// hostile is what FuzzRun sets a flag to: negative, zero, huge, not a
// number, infinite, not numeric at all, and empty. None is a valid
// duration, so no draw asks for an hour-long measurement.
var hostile = []string{"-1", "0", "9223372036854775807", "1e308", "NaN", "Inf", "-Inf", "x", ""}

// fuzzTarget is one flag FuzzRun can set: a subcommand's, or a global
// one when cmd is empty.
type fuzzTarget struct{ cmd, flag string }

// fuzzTargets lists every flag of every subcommand but all, read from
// the subcommand's own -h text, so a flag added to the experiments
// table is fuzzed without being listed here. Then come the global
// flags from `ibsim -h` that take a value but not a path: a bool takes
// none, and a string flag (-csv, -cpuprofile, -memprofile) would write
// files wherever the test runs.
func fuzzTargets() []fuzzTarget {
	var targets []fuzzTarget
	flags := func(cmd string, argv ...string) {
		var help bytes.Buffer
		run(argv, io.Discard, &help)
		for _, line := range strings.Split(help.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				if f := strings.Fields(rest); cmd != "" || len(f) == 2 && f[1] != "string" {
					targets = append(targets, fuzzTarget{cmd, f[0]})
				}
			}
		}
	}
	for _, x := range experiments {
		if x.name != "all" {
			flags(x.name, x.name, "-h")
		}
	}
	flags("", "-h")
	return targets
}

// FuzzRun drives the whole CLI at -quick with one subcommand flag set
// to a hostile value and holds run to failing loudly: no panic, in run
// or reported by a job; an exit code of 0, 1 or 2; and an exit 2 whose
// first line names the flag. table4 measures for 1 ms unless its
// -budget is the flag drawn. A global flag is set before the cheap
// config command; a huge -jobs starts no more workers than one sweep
// has points.
func FuzzRun(f *testing.F) {
	targets := fuzzTargets()
	if len(targets) == 0 {
		f.Fatal("no subcommand flags found in the -h texts")
	}
	for _, seed := range []struct{ cmd, flag, value string }{
		{"fig5", "duty", "NaN"},
		{"table2", "pr", "NaN"},
		{"table4", "bytes", "9223372036854775807"},
		{"faults", "bers", "Inf"},
		{"fig1", "attackers", "9223372036854775807"},
		{"", "duration-ms", "9223372036854775807"},
	} {
		ti := slices.Index(targets, fuzzTarget{seed.cmd, seed.flag})
		vi := slices.Index(hostile, seed.value)
		if ti < 0 || vi < 0 {
			f.Fatalf("seed %v names no flag or value", seed)
		}
		f.Add(uint8(ti), uint8(vi))
	}
	f.Fuzz(func(t *testing.T, ti, vi uint8) {
		tg := targets[int(ti)%len(targets)]
		value := hostile[int(vi)%len(hostile)]
		argv := []string{"-quick", "-duration-ms", "1", tg.cmd, "-" + tg.flag, value}
		if tg.cmd == "" {
			argv = []string{"-quick", "-duration-ms", "1", "-" + tg.flag, value, "config"}
		}
		if tg.cmd == "table4" && tg.flag != "budget" {
			argv = append(argv, "-budget", "1ms")
		}
		var stderr bytes.Buffer
		code := run(argv, io.Discard, &stderr)
		if strings.Contains(stderr.String(), "panicked") {
			t.Fatalf("ibsim %s: a job panicked:\n%s", strings.Join(argv, " "), stderr.String())
		}
		switch code {
		case 0, 1:
		case 2:
			first, _, _ := strings.Cut(stderr.String(), "\n")
			if !strings.Contains(first, "-"+tg.flag) {
				t.Fatalf("ibsim %s: exit 2, but the first line of stderr does not name -%s:\n%s", strings.Join(argv, " "), tg.flag, stderr.String())
			}
		default:
			t.Fatalf("ibsim %s: exit %d, want 0, 1 or 2\n%s", strings.Join(argv, " "), code, stderr.String())
		}
	})
}
