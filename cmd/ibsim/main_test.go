package main

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibasec/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// ibsim drives the whole CLI in-process and returns its exit code and
// output streams.
func ibsim(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// goldens is the one place a pinned sweep's arguments are written: the
// golden file, the command that regenerates it, the table it writes
// (when that is not named after the command), and the command's flags.
// Refresh after an intentional behaviour change with
//
//	go test -run TestGolden -update ./cmd/ibsim
var goldens = []struct{ file, cmd, table, args string }{
	{"faults_quick.csv", "faults", "", "-bers 0,1e-5 -kills 0,2"},
	{"failover_quick.csv", "failover", "", "-standbys 1,2 -heartbeats-us 50 -rekeys-us 0,300"},
	{"apm_quick.csv", "apm", "", "-bers 0,1e-5 -kills 0,1"},
	{"drift_quick.csv", "drift", "", "-periods-us 0,200,50"},
	{"splitbrain_quick.csv", "splitbrain", "", "-partitions-us 80,160,320 -heartbeats-us 10,20 -rekeys-us 0,60"},
	{"congestion_quick.csv", "congestion", "", "-rates 0.5,1.0"},
	{"health_quick.csv", "health", "", "-bers 1e-4"},
	{"table2_quick.csv", "table2", "", ""},
	{"sweep_quick.csv", "sweep", "sweep_duty", ""},
	{"authrate_quick.csv", "authrate", "", ""},
	{"smdos_quick.csv", "smdos", "", ""},
	{"scale_quick.csv", "scale", "", ""},
}

// TestGolden replays each pinned sweep through run — flag parsing,
// worker pool, sweep, renderer, CSV writer — and byte-compares the CSV
// it writes with the committed golden, at four workers and at one: any
// change to simulator behaviour (event order, RNG draws, CRC handling,
// routing) shows up as a line diff, and worker scheduling cannot leak
// into results. Under `go test -race` this is the race-instrumented
// end-to-end replay of every robustness experiment and ablation.
func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.cmd, func(t *testing.T) {
			t.Parallel()
			for _, jobs := range []string{"4", "1"} {
				if jobs == "1" && testing.Short() {
					break
				}
				dir := t.TempDir()
				args := append([]string{"-quick", "-jobs", jobs, "-csv", dir, g.cmd}, strings.Fields(g.args)...)
				if code, _, stderr := ibsim(args...); code != 0 {
					t.Fatalf("ibsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
				}
				table := cmp.Or(g.table, g.cmd)
				got, err := os.ReadFile(filepath.Join(dir, table+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				if !matchGolden(t, g.file, "-jobs "+jobs, got) {
					return
				}
			}
		})
	}
}

// TestGoldenAttacks pins `ibsim attacks` stdout, the Table 3 threat
// matrix, byte for byte (refresh with -update).
func TestGoldenAttacks(t *testing.T) {
	code, stdout, stderr := ibsim("attacks")
	if code != 0 {
		t.Fatalf("ibsim attacks: exit %d\n%s", code, stderr)
	}
	matchGolden(t, "attacks.txt", "attacks", []byte(stdout))
}

// matchGolden compares got with the golden file under testdata/golden,
// reporting a drift under label. With -update it rewrites the file
// instead and returns false, so callers replaying one golden several
// ways stop after the first.
func matchGolden(t *testing.T, file, label string, got []byte) bool {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return false
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %s drifted from golden\n--- golden\n%s--- got\n%s", label, file, want, got)
	}
	return true
}

// TestTraceDeterministic pins `ibsim trace` stdout: the per-kind counts
// once ranged over a map, so the same seed printed different bytes.
func TestTraceDeterministic(t *testing.T) {
	_, first, _ := ibsim("-quick", "trace", "-events", "1")
	if !strings.Contains(first, "Counts by kind:") {
		t.Fatalf("trace output missing the per-kind counts:\n%s", first)
	}
	for i := 0; i < 5; i++ {
		if _, again, _ := ibsim("-quick", "trace", "-events", "1"); again != first {
			t.Fatalf("same-seed trace output differs:\n%s\n---\n%s", first, again)
		}
	}
}

// TestBadInput: every kind of bad command line comes back from run as a
// non-zero exit code with a message naming the culprit — never through
// os.Exit (which would kill this test binary), so run's deferred
// profile writers always run. An unknown global flag (-resume and
// -results are not flags) fails the same way, so a stale script stops
// instead of being half-obeyed; so do an unknown flag and a leftover
// argument after any command. `<command> -h` exits 0 for every command.
func TestBadInput(t *testing.T) {
	for _, tc := range []struct{ args, stderr string }{
		{"", "Commands:"},
		{"nosuch", `unknown command "nosuch"`},
		{"-nope config", "-nope"},
		{"fig5 -nope", "-nope"},
		{"faults -bers x", "-bers"},
		{"fig1 -class x", "-class"},
		{"fig1 -arb x", "-arb"},
		{"fig6 -level x", "-level"},
		{"table2 -p 0", "-p"},
		{"table2 -pr 1.5", "-pr"},
		{"table2 -pr NaN", "-pr"},
		{"table2 -avg -1", "-avg"},
		{"table2 -avg NaN", "-avg"},
		{"table2 -avg Inf", "-avg"},
		{"table4 -bytes 0", "-bytes"},
		{"table4 -bytes -1", "-bytes"},
		{"table4 -bytes 16777217", "-bytes"},
		{"table4 -budget 0s", "-budget"},
		{"table4 -budget -1s", "-budget"},
		{"trace -events -1", "-events"},
		{"-quick drift -periods-us 18446744073709552", "-periods-us"}, // wrapped to a 0.384 µs period
		{"drift -periods-us 0,9223372036855", "-periods-us"},
		{"failover -standbys 1 -rekeys-us 9223372036854775807", "-rekeys-us"},
		{"failover -heartbeats-us 9223372036855", "-heartbeats-us"},
		{"splitbrain -partitions-us 9223372036855", "-partitions-us"},
		{"splitbrain -heartbeats-us -9223372036855", "-heartbeats-us"},
		{"splitbrain -rekeys-us 9223372036855", "-rekeys-us"},
		{"-cpu-ghz 0 table4", "-cpu-ghz"},
		{"-cpu-ghz -1 table4", "-cpu-ghz"},
		{"-cpu-ghz NaN table4", "-cpu-ghz"},
		{"-cpu-ghz Inf table4", "-cpu-ghz"},
		{"-jobs -3 table2", "-jobs"},
		{"-watchdog -1s table2", "-watchdog"},
		{"-resume fig5", "-resume"},
		{"-results x fig5", "-results"},
		{"-quick fig5 x -duty 0.5", `unexpected argument "x": ibsim fig5 takes only flags`},
		{"config x", `unexpected argument "x"`},
		{"attacks x", `unexpected argument "x"`},
		{"smdos extra", `unexpected argument "extra"`},
		{"config -nope", "-nope"},
		{"attacks -nope", "-nope"},
		{"all -nope", "-nope"},
		{"-duration-ms 0 config", "-duration-ms"},
		{"-duration-ms -1 config", "-duration-ms"},
		{"-duration-ms 9223372036855 config", "-duration-ms"},   // wrapped to 224 µs points
		{"-duration-ms 18446744073709552 fig5", "-duration-ms"}, // wrapped to 384 µs points
	} {
		code, stdout, stderr := ibsim(strings.Fields(tc.args)...)
		if code != 2 {
			t.Errorf("ibsim %s: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("ibsim %s: stderr does not mention %q:\n%s", tc.args, tc.stderr, stderr)
		}
		if stdout != "" {
			t.Errorf("ibsim %s: bad input produced output:\n%s", tc.args, stdout)
		}
	}
	for _, x := range experiments {
		code, stdout, stderr := ibsim(x.name, "-h")
		if code != 0 || stdout != "" || !strings.HasPrefix(stderr, "Usage of ibsim "+x.name+":") {
			t.Errorf("ibsim %s -h: exit %d, want 0 with its usage on stderr alone\nstdout:\n%s\nstderr:\n%s", x.name, code, stdout, stderr)
		}
	}
}

// TestFig1NegativeAttackers: a negative attacker count is an error
// naming the sweep, not a makeslice panic with a Go stack trace; so is
// a count that leaves no node to attack, up to the largest int, and it
// fails before a point is built for each count.
func TestFig1NegativeAttackers(t *testing.T) {
	for _, n := range []string{"-1", "16", "9223372036854775807"} {
		code, stdout, stderr := ibsim("-quick", "fig1", "-attackers", n)
		if code == 0 {
			t.Fatalf("-attackers %s: exit 0, want non-zero\n%s", n, stderr)
		}
		if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
			t.Errorf("-attackers %s: stderr shows a panic:\n%s", n, stderr)
		}
		if !strings.Contains(stderr, "fig1") || !strings.Contains(stderr, n+" attackers") {
			t.Errorf("-attackers %s: stderr does not name the sweep and the count:\n%s", n, stderr)
		}
		if stdout != "" {
			t.Errorf("-attackers %s: printed output:\n%s", n, stdout)
		}
	}
}

// TestOutOfRangeSweepValues: a sweep value the simulation cannot honour
// fails its point with a runner.JobError naming the experiment and the
// point, and the run exits 1 with nothing on stdout, instead of printing
// rows labelled with the value but simulated without it.
func TestOutOfRangeSweepValues(t *testing.T) {
	for _, tc := range []struct{ args, point, cause string }{
		{"faults -bers -1 -kills 0", "faults[{Mode:DPT BER:-1 Kills:0}]", "BER burst rate -1"},
		{"faults -bers 0 -kills -1", "faults[{Mode:DPT BER:0 Kills:-1}]", "-1 link kills"},
		{"faults -bers 0 -kills 100", "faults[{Mode:DPT BER:0 Kills:100}]", "100 link kills"},
		{"apm -bers -1 -kills 0", "apm[{Arm:timeout BER:-1 Kills:0}]", "BER burst rate -1"},
		{"apm -bers 0 -kills -1", "apm[{Arm:timeout BER:0 Kills:-1}]", "-1 link kills"},
		{"failover -standbys 1 -heartbeats-us 50 -rekeys-us -1", "failover[{Standbys:1 HeartbeatUS:50 RekeyUS:-1}]", "negative rotation period"},
		{"failover -standbys -1 -heartbeats-us 50 -rekeys-us 0", "failover[{Standbys:-1 HeartbeatUS:50 RekeyUS:0}]", "-1 SM standbys"},
		{"splitbrain -partitions-us -1 -heartbeats-us 10 -rekeys-us 0", "splitbrain[{PartitionUS:-1 HeartbeatUS:10 RekeyUS:0}]", "partition window"},
		{"splitbrain -partitions-us 80 -heartbeats-us 10 -rekeys-us -5", "splitbrain[{PartitionUS:80 HeartbeatUS:10 RekeyUS:-5}]", "negative rotation period"},
		{"failover -standbys 1 -heartbeats-us 50 -rekeys-us 9223372036854", "failover[{Standbys:1 HeartbeatUS:50 RekeyUS:9223372036854}]", "rotation period 9223372036.854ms, starting as late as 2.000ms, ends past the simulator's largest time"},
		{"failover -standbys 1 -heartbeats-us 9223372036854 -rekeys-us 0", "failover[{Standbys:1 HeartbeatUS:9223372036854 RekeyUS:0}]", "HA heartbeat 9223372036.854ms, starting as late as 2.000ms, ends past"},
		{"splitbrain -partitions-us 9223372036854 -heartbeats-us 10 -rekeys-us 0", "splitbrain[{PartitionUS:9223372036854 HeartbeatUS:10 RekeyUS:0}]", "partition window from 666.667us lasting 9223372036.854ms ends past the simulator's largest time"},
		{"health -bers -1", "health[{Mode:DPT Attack:ramp Arm:off BER:-1}]", "link BER rate"},
		{"health -bers NaN", "health[{Mode:DPT Attack:ramp Arm:off BER:NaN}]", "link BER rate NaN"},
		{"faults -bers NaN -kills 0", "faults[{Mode:DPT BER:NaN Kills:0}]", "BER burst rate NaN"},
		{"fig5 -duty NaN", "fig5[{Load:0.4 Mode:NoFiltering}]", "attack duty NaN"},
		{"fig5 -duty Inf", "fig5[{Load:0.4 Mode:NoFiltering}]", "attack duty +Inf"},
		{"sweep -load NaN", "sweep_duty[0.005]", "loads must be in [0,1]"},
		{"authrate -load NaN", "authrate[CRC-32]", "loads must be in [0,1]"},
		{"scale -load NaN", "scale[[2 2]]", "loads must be in [0,1]"},
		{"congestion -rates NaN", "congestion[{Mode:DPT Rate:NaN CC:false}]", "attack rate NaN"},
	} {
		code, stdout, stderr := ibsim(append([]string{"-quick"}, strings.Fields(tc.args)...)...)
		if code != 1 {
			t.Errorf("ibsim %s: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(stderr, "runner: "+tc.point+" failed") || !strings.Contains(stderr, tc.cause) {
			t.Errorf("ibsim %s: stderr does not attribute %q to %s:\n%s", tc.args, tc.cause, tc.point, stderr)
		}
		if stdout != "" {
			t.Errorf("ibsim %s: printed rows:\n%s", tc.args, stdout)
		}
	}
}

// TestSweepWritesOnlyCSV: a sweep's output is stdout and -csv, nothing
// else — no state file appears in the working directory. (os.Chdir, not
// t.Chdir: go.mod targets 1.22. The test is not parallel, so no other
// test runs while the directory is changed.)
func TestSweepWritesOnlyCSV(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	if code, _, stderr := ibsim("-quick", "-csv", "csv", "fig6"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var written []string
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			written = append(written, filepath.ToSlash(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 1 || written[0] != "csv/fig6.csv" {
		t.Fatalf("a sweep wrote %q, want only csv/fig6.csv", written)
	}
}

// TestBadInputKeepsProfile is the cleanup half of TestBadInput: a bad
// subcommand flag used to os.Exit inside run, leaving -cpuprofile empty.
func TestBadInputKeepsProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	code, _, stderr := ibsim("-cpuprofile", prof, "fig5", "-nope")
	if code == 1 && strings.Contains(stderr, "already") {
		t.Skip("the test binary is itself being CPU-profiled")
	}
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, stderr)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile not flushed: %v, %v", st, err)
	}
}

// panickingPoint is a point function that panics, so its name must show
// in the stack report prints.
func panickingPoint(context.Context) (int, error) { panic("boom") }

// TestReportPrintsPanicStack holds report to printing, after the error
// line, the stack of a point that panicked, attributed to the point,
// even when the error arrives wrapped the way the all command wraps it;
// an error with no panic in it stays one line.
func TestReportPrintsPanicStack(t *testing.T) {
	ok := func(context.Context) (int, error) { return 0, nil }
	_, err := runner.Run(context.Background(), runner.New(runner.Options{Workers: 1}), []runner.Job[int]{
		{Experiment: "demo", Key: "p=0", Index: 0, Run: ok},
		{Experiment: "demo", Key: "p=1", Index: 1, Run: panickingPoint},
	})
	if err == nil {
		t.Fatal("a panicking point produced no error")
	}
	var out bytes.Buffer
	report(&out, fmt.Errorf("1/1 experiments failed:\n%w", errors.Join(fmt.Errorf("demo: %w", err))))
	got := out.String()
	first, rest, _ := strings.Cut(got, "\n")
	if !strings.HasPrefix(first, "ibsim: 1/1 experiments failed:") {
		t.Fatalf("report does not start with the error line:\n%s", got)
	}
	if !strings.Contains(rest, "ibsim: demo[p=1] panicked: boom\n") || !strings.Contains(rest, "ibsim.panickingPoint(") {
		t.Fatalf("report lacks the attributed stack of panickingPoint:\n%s", got)
	}
	out.Reset()
	report(&out, errors.New("plain failure"))
	if got := out.String(); got != "ibsim: plain failure\n" {
		t.Fatalf("report of an error with no panic = %q, want one line", got)
	}
}
