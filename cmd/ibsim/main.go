// Command ibsim regenerates every table and figure of "Security
// Enhancement in InfiniBand Architecture" (IPPS 2005) from the ibasec
// simulator.
//
//	ibsim [global flags] <command> [command flags]
//
// `ibsim` with no arguments (or -h) prints the command list and the global
// flags; `ibsim <command> -h` prints that command's flags. Both texts are
// generated from the experiments table below, which is the only place a
// command is registered. Profile the simulator hot path with e.g.
// `ibsim -cpuprofile cpu.pprof -jobs 1 fig5`.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"ibasec/internal/attack"
	"ibasec/internal/core"
	"ibasec/internal/fabric"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/transport"
	"ibasec/internal/umac"
)

// experiment is one subcommand. The experiments table is the single
// registry: -list, the usage text, dispatch and `ibsim all` are all
// loops over it.
type experiment struct {
	name    string
	summary string
	// flags registers the command's flags, each checking its own range
	// as it is set, and returns the command's body; parse calls it.
	flags func(fs *flag.FlagSet) func(*env) error
}

var experiments = []experiment{
	{"config", "print the Table 1 testbed parameters", configFlags},
	{"fig1", "queuing/latency vs number of attackers", fig1Flags},
	{"fig5", "NoFiltering/DPT/IF/SIF delay comparison", fig5Flags},
	{"fig6", "authentication overhead", fig6Flags},
	{"table2", "enforcement cost model", table2Flags},
	{"table4", "MAC throughput & forgery probability (host-timed)", table4Flags},
	{"attacks", "Table 3 key-theft matrix", attacksFlags},
	{"sweep", "ablation: SIF exposure vs attack duty", sweepFlags},
	{"authrate", "ablation: MAC engine speed vs link speed", authRateFlags},
	{"smdos", "ablation: management DoS against the SM", smDoSFlags},
	{"scale", "ablation: DoS damage vs mesh size", scaleFlags},
	{"faults", "chaos: link kills + BER bursts vs self-healing SM", faultsFlags},
	{"failover", "robustness: SM kill + standby election + key-epoch rotation", failoverFlags},
	{"apm", "robustness: RC NAK recovery + automatic path migration", apmFlags},
	{"drift", "policy plane: switch-state corruption vs the drift auditor", driftFlags},
	{"splitbrain", "robustness: subnet bisection, dual-master containment, merge reconciliation", splitBrainFlags},
	{"congestion", "robustness: FECN/BECN congestion control vs DoS injection rate", congestionFlags},
	{"health", "robustness: flaky-link quarantine (PerfMgr) vs gray failure and oscillating BER", healthFlags},
	{"trace", "dump a packet-lifecycle trace", traceFlags},
}

// "all" loops over the table, so it joins the table at init time (a
// literal row would be an initialization cycle).
func init() {
	experiments = append(experiments, experiment{"all", "everything above, each with its default flags", allFlags})
}

// env is what one invocation hands its experiment: the run-wide
// cancellation context and worker pool, the base configuration the
// global flags describe, and where output goes.
type env struct {
	ctx            context.Context
	pool           *runner.Pool
	base           core.Config
	cpuGHz         float64
	csvDir         string
	stdout, stderr io.Writer
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI. It returns the exit code instead of calling
// os.Exit — on every path, bad input included — so the deferred profile
// writers always run, and so tests can drive it in-process. Every flag,
// global or the command's, is checked before any simulation starts.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "simulation seed")
	durationMS := checked(fs, "duration-ms", "20", "simulated milliseconds per data point",
		within(strconv.Atoi, func(v int) bool { return v >= 1 && int64(v) <= maxMillis }, fmt.Sprintf("1 to %d milliseconds", maxMillis)))
	quick := fs.Bool("quick", false, "short runs (2 ms) for smoke testing")
	cpuGHz := checked(fs, "cpu-ghz", "2.1", "CPU clock for table4 cycles/byte conversion",
		within(atof, func(v float64) bool { return v > 0 && v < math.Inf(1) }, "a finite clock rate above 0 GHz"))
	csvDir := fs.String("csv", "", "also write each experiment's rows to <dir>/<name>.csv")
	jobs := checked(fs, "jobs", "0", "parallel simulation points per sweep (0 = GOMAXPROCS)",
		within(strconv.Atoi, func(v int) bool { return v >= 0 }, "a non-negative count (0 = GOMAXPROCS)"))
	watchdog := checked(fs, "watchdog", "0s", "wall-clock budget per simulation point; a wedged point fails with attribution instead of hanging the sweep (0 disables)",
		within(time.ParseDuration, func(v time.Duration) bool { return v >= 0 }, "a non-negative duration (0 disables)"))
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile at exit to this file")
	list := fs.Bool("list", false, "print the available experiment names, one per line, and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: ibsim [global flags] <command> [command flags]\n\nCommands:\n")
		tw := tabwriter.NewWriter(stderr, 0, 0, 2, ' ', 0)
		for _, x := range experiments {
			fmt.Fprintf(tw, "  %s\t%s\n", x.name, x.summary)
		}
		tw.Flush()
		fmt.Fprintf(stderr, "\nGlobal flags (before the command):\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		report(stderr, err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(err)
			}
		}()
	}

	if *list {
		for _, x := range experiments {
			fmt.Fprintln(stdout, x.name)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd := fs.Arg(0)
	i := slices.IndexFunc(experiments, func(x experiment) bool { return x.name == cmd })
	if i < 0 {
		fmt.Fprintf(stderr, "ibsim: unknown command %q\n\n", cmd)
		fs.Usage()
		return 2
	}
	body, err := parse(experiments[i], fs.Args()[1:], stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}

	// Ctrl-C / SIGTERM cancels cleanly between simulation points: points
	// in flight finish, the rest fail as cancelled, and the run exits 1.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := core.DefaultConfig()
	base.Seed = *seed
	base.Duration = sim.Time(*durationMS) * sim.Millisecond
	base.Warmup = base.Duration / 10
	if *quick {
		base.Duration = 2 * sim.Millisecond
		base.Warmup = 200 * sim.Microsecond
	}
	e := &env{
		ctx: ctx,
		pool: runner.New(runner.Options{
			Workers:  *jobs,
			Progress: stderr,
			Watchdog: *watchdog,
		}),
		base:   base,
		cpuGHz: *cpuGHz,
		csvDir: *csvDir,
		stdout: stdout,
		stderr: stderr,
	}
	if err := body(e); err != nil {
		return fail(err)
	}
	return 0
}

// report writes err as one "ibsim: " line, then the stack of each job
// panic inside it, under the point that panicked.
func report(w io.Writer, err error) {
	fmt.Fprintf(w, "ibsim: %v\n", err)
	var walk func(err error, job *runner.JobError)
	walk = func(err error, job *runner.JobError) {
		switch e := err.(type) {
		case *runner.PanicError:
			fmt.Fprintf(w, "ibsim: %s[%s] panicked: %v\n%s", job.Experiment, job.Key, e.Value, e.Stack)
		case *runner.JobError:
			walk(e.Err, e)
		case interface{ Unwrap() []error }:
			for _, err := range e.Unwrap() {
				walk(err, job)
			}
		case interface{ Unwrap() error }:
			walk(e.Unwrap(), job)
		}
	}
	walk(err, nil)
}

// parse is every command's one flag path: it registers x's flags on a
// fresh flag set, parses args, refuses a leftover positional argument,
// and returns x's body. On bad input the error has already been
// explained on stderr together with the command's flags.
func parse(x experiment, args []string, stderr io.Writer) (func(*env) error, error) {
	fs := flag.NewFlagSet("ibsim "+x.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := x.flags(fs)
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q: ibsim %s takes only flags", fs.Arg(0), x.name)
		fmt.Fprintln(stderr, err)
		fs.Usage()
	}
	return body, err
}

// value is a flag whose Set parses and range-checks its text with conv,
// so a bad value is refused as it is set: the flag package then reports
// `invalid value "x" for flag -p: want …` with the flag list. It keeps
// the text it parsed so -h shows the default as written.
type value[T any] struct {
	text string
	val  *T
	conv func(string) (T, error)
}

func (v *value[T]) String() string { return v.text }

func (v *value[T]) Set(s string) error {
	x, err := v.conv(s)
	if err != nil {
		return err
	}
	v.text, *v.val = s, x
	return nil
}

// checked registers a flag whose text conv parses and checks.
func checked[T any](fs *flag.FlagSet, name, def, usage string, conv func(string) (T, error)) *T {
	v := &value[T]{val: new(T), conv: conv}
	if err := v.Set(def); err != nil {
		panic(err) // a default that does not parse is a bug in this file
	}
	fs.Var(v, name, usage)
	return v.val
}

// within is a conv that parses with parse and accepts what ok accepts.
func within[T any](parse func(string) (T, error), ok func(T) bool, want string) func(string) (T, error) {
	return func(s string) (T, error) {
		v, err := parse(s)
		if err != nil || !ok(v) {
			return v, errors.New("want " + want)
		}
		return v, nil
	}
}

// oneOf is a conv for an enum flag: the text must be one of m's keys.
func oneOf[T any](m map[string]T) func(string) (T, error) {
	return func(s string) (T, error) {
		v, ok := m[s]
		if !ok {
			return v, errors.New("want one of " + strings.Join(sortedKeys(m), ", "))
		}
		return v, nil
	}
}

// list lifts conv to a comma-separated list ("-bers 0,1e-6,1e-5").
func list[T any](conv func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		var vals []T
		for _, f := range strings.Split(s, ",") {
			v, err := conv(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		return vals, nil
	}
}

func atof(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func atoi64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// maxMicros and maxMillis are the largest microsecond and millisecond
// counts a sim.Time holds.
const (
	maxMicros = math.MaxInt64 / int64(sim.Microsecond)
	maxMillis = math.MaxInt64 / int64(sim.Millisecond)
)

var (
	floats = list(atof)
	ints   = list(strconv.Atoi)
	// micros is a list of microsecond counts, int64 on every platform:
	// a count whose sim.Time would overflow, and so wrap to some other
	// period than its row label shows, is refused at parse time, naming
	// the flag.
	micros = list(within(atoi64, func(v int64) bool { return v <= maxMicros && v >= -maxMicros },
		fmt.Sprintf("microseconds within ±%d", maxMicros)))
)

// emit is every experiment's one output path: a sweep's error, or else
// the title, the rows' CSV columns aligned for reading on stdout, and —
// when -csv is set — the same cells as <dir>/<name>.csv.
func emit[R any](e *env, title, name string, rows []R, err error) error {
	if err != nil {
		return err
	}
	t := core.Table(name, rows)
	fmt.Fprintln(e.stdout, title)
	tw := tabwriter.NewWriter(e.stdout, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if e.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.csvDir, t.Name+".csv"), t.Bytes(), 0o644)
}

func configFlags(*flag.FlagSet) func(*env) error {
	return func(e *env) error {
		cfg := e.base
		fmt.Fprintln(e.stdout, "Table 1. IBA simulation testbed parameters")
		fmt.Fprintf(e.stdout, "  Physical link bandwidth      %.1f Gbps\n", cfg.Params.LinkBandwidth/1e9)
		fmt.Fprintf(e.stdout, "  Ports per switch             5 (4x4 mesh, one HCA per switch)\n")
		fmt.Fprintf(e.stdout, "  VLs per physical link        16 (VL0 best-effort, VL1 realtime, VL15 management)\n")
		fmt.Fprintf(e.stdout, "  MTU                          %d bytes\n", cfg.MsgSize)
		fmt.Fprintf(e.stdout, "  Credits per VL               %d packets\n", cfg.Params.CreditsPerVL)
		fmt.Fprintf(e.stdout, "  Switch lookup latency        %v\n", cfg.Params.SwitchLookup)
		fmt.Fprintf(e.stdout, "  Core clock cycle             %v\n", cfg.Params.ClockCycle)
		fmt.Fprintf(e.stdout, "  Partitions                   %d random groups\n", cfg.NumPartitions)
		fmt.Fprintf(e.stdout, "  Simulated time per point     %v (warmup %v)\n", cfg.Duration, cfg.Warmup)
		return nil
	}
}

func fig1Flags(fs *flag.FlagSet) func(*env) error {
	classes := checked(fs, "class", "both", "rt, be, or both", oneOf(map[string][]fabric.Class{
		"rt":   {fabric.ClassRealtime},
		"be":   {fabric.ClassBestEffort},
		"both": {fabric.ClassRealtime, fabric.ClassBestEffort},
	}))
	attackers := fs.Int64("attackers", 4, "maximum number of attackers")
	weighted := checked(fs, "arb", "strict", "VL arbiter: strict or weighted (ablation)", oneOf(map[string]bool{"strict": false, "weighted": true}))
	return func(e *env) error {
		base := e.base
		base.RealtimeLoad = 0.7
		base.BestEffortLoad = 0.65
		if *weighted {
			base.Params = base.Params.Clone()
			base.Params.Arbitration = fabric.ArbWeighted
			base.Params.HighPriLimit = 2
		}
		for _, class := range *classes {
			letter, name := "b", "best-effort"
			if class == fabric.ClassRealtime {
				letter, name = "a", "realtime"
			}
			rows, err := core.Fig1(e.ctx, e.pool, class, *attackers, base)
			title := fmt.Sprintf("Figure 1(%s). Average queuing time & network latency under DoS (%s traffic)", letter, name)
			if err := emit(e, title, "fig1_"+name, rows, err); err != nil {
				return err
			}
			fmt.Fprintln(e.stdout)
		}
		return nil
	}
}

func fig5Flags(fs *flag.FlagSet) func(*env) error {
	duty := fs.Float64("duty", 0.01, "fraction of time the DoS attack is active")
	return func(e *env) error {
		base := e.base
		base.AttackCycle = base.Duration / 4
		rows, err := core.Fig5(e.ctx, e.pool, []float64{0.4, 0.5, 0.6, 0.7}, *duty, base)
		title := fmt.Sprintf("Figure 5. Delay comparison among No Filtering, DPT, IF, SIF (4 attackers, %.0f%% duty)", *duty*100)
		return emit(e, title, "fig5", rows, err)
	}
}

func fig6Flags(fs *flag.FlagSet) func(*env) error {
	level := checked(fs, "level", "qp", "key management level: qp or partition",
		oneOf(map[string]transport.KeyLevel{"qp": transport.QPLevel, "partition": transport.PartitionLevel}))
	return func(e *env) error {
		rows, err := core.Fig6(e.ctx, e.pool, []float64{0.4, 0.5, 0.6, 0.7}, *level, e.base)
		title := fmt.Sprintf("Figure 6. Message authentication overhead with key initialization (%v keys)", *level)
		return emit(e, title, "fig6", rows, err)
	}
}

func table2Flags(fs *flag.FlagSet) func(*env) error {
	p := checked(fs, "p", "4", "partitions joined per node", within(strconv.Atoi, func(v int) bool { return v >= 1 }, "at least 1"))
	pr := checked(fs, "pr", "0.01", "Pr(n): probability a node attacks",
		within(atof, func(v float64) bool { return v >= 0 && v <= 1 }, "a probability in [0, 1]"))
	avg := checked(fs, "avg", "2", "Avg(p): mean Invalid_P_Key_Table entries",
		within(atof, func(v float64) bool { return v >= 0 && v < math.Inf(1) }, "a finite non-negative mean"))
	return func(e *env) error {
		title := fmt.Sprintf("Table 2. Partition enforcement overhead (n=16, s=16, p=%d, Pr=%.2f, Avg=%.1f)", *p, *pr, *avg)
		return emit(e, title, "table2", core.Table2Rows(*p, *pr, *avg), nil)
	}
}

func table4Flags(fs *flag.FlagSet) func(*env) error {
	bytes := checked(fs, "bytes", "188", "message size (paper: 1500 bits)",
		within(strconv.Atoi, func(v int) bool { return v >= 1 && v <= umac.MaxMessage }, fmt.Sprintf("1 to %d (UMAC's message limit)", umac.MaxMessage)))
	budget := checked(fs, "budget", "200ms", "measurement budget per algorithm",
		within(time.ParseDuration, func(v time.Duration) bool { return v > 0 }, "a positive duration"))
	return func(e *env) error {
		title := fmt.Sprintf("Table 4. Time & forgery complexity (%d-byte messages, cycles at %.1f GHz)", *bytes, e.cpuGHz)
		return emit(e, title, "table4", core.Table4(*bytes, *budget, e.cpuGHz), nil)
	}
}

func attacksFlags(*flag.FlagSet) func(*env) error {
	return func(e *env) error {
		fmt.Fprintln(e.stdout, "Table 3. IBA key vulnerability: attacks vs plain IBA and vs ICRC-as-MAC")
		for _, o := range attack.Matrix(e.base.Seed) {
			fmt.Fprintln(e.stdout, " ", o)
		}
		return nil
	}
}

func sweepFlags(fs *flag.FlagSet) func(*env) error {
	load := fs.Float64("load", 0.4, "best-effort input load")
	return func(e *env) error {
		base := e.base
		base.AttackCycle = base.Duration / 4
		rows, err := core.SweepDuty(e.ctx, e.pool, []float64{0.005, 0.01, 0.05, 0.1, 0.25}, *load, base)
		title := fmt.Sprintf("Ablation. SIF exposure vs attack duty cycle (load %.0f%%)", *load*100)
		return emit(e, title, "sweep_duty", rows, err)
	}
}

func authRateFlags(fs *flag.FlagSet) func(*env) error {
	load := fs.Float64("load", 0.5, "best-effort input load")
	return func(e *env) error {
		rows, err := core.AuthRateSweep(e.ctx, e.pool, core.PaperTable4Rates(), *load, e.base)
		title := fmt.Sprintf("Section 5.2/7. Can the MAC keep up with the %.1f Gb/s link? (load %.0f%%, Table 4 rates)",
			e.base.Params.LinkBandwidth/1e9, *load*100)
		return emit(e, title, "authrate", rows, err)
	}
}

func smDoSFlags(*flag.FlagSet) func(*env) error {
	return func(e *env) error {
		rows, err := core.SMFloodSweep(e.ctx, e.pool, []float64{0, 50e3, 200e3, 400e3, 450e3}, e.base)
		return emit(e, "Section 7. Management DoS: SIF registration latency vs MAD flood rate", "smdos", rows, err)
	}
}

func scaleFlags(fs *flag.FlagSet) func(*env) error {
	load := fs.Float64("load", 0.5, "best-effort input load")
	return func(e *env) error {
		base := e.base
		base.BestEffortLoad = *load
		base.RealtimeLoad = 0
		rows, err := core.ScaleSweep(e.ctx, e.pool, [][2]int{{2, 2}, {4, 4}, {6, 6}, {8, 8}}, base)
		title := fmt.Sprintf("Ablation. DoS damage vs fabric size (load %.0f%%, nodes/4 attackers)", *load*100)
		return emit(e, title, "scale", rows, err)
	}
}

func faultsFlags(fs *flag.FlagSet) func(*env) error {
	bers := checked(fs, "bers", "0,1e-6,1e-5", "comma-separated bit-error rates", floats)
	kills := checked(fs, "kills", "0,1,2", "comma-separated concurrent link-kill counts", ints)
	return func(e *env) error {
		rows, err := core.FaultsSweep(e.ctx, e.pool, *bers, *kills, e.base)
		return emit(e, "Chaos. Deterministic link kills + BER bursts vs the self-healing SM", "faults", rows, err)
	}
}

func failoverFlags(fs *flag.FlagSet) func(*env) error {
	standbys := checked(fs, "standbys", "0,1,2", "comma-separated standby SM counts (0 = no HA baseline)", ints)
	heartbeats := checked(fs, "heartbeats-us", "50,100", "comma-separated heartbeat intervals (us)", micros)
	rekeys := checked(fs, "rekeys-us", "0,300", "comma-separated rekey periods (us); 0 disables rotation", micros)
	return func(e *env) error {
		rows, err := core.FailoverSweep(e.ctx, e.pool, *standbys, *heartbeats, *rekeys, e.base)
		return emit(e, "Robustness. SM kill + standby election + online key-epoch rotation", "failover", rows, err)
	}
}

func apmFlags(fs *flag.FlagSet) func(*env) error {
	bers := checked(fs, "bers", "0,1e-5", "comma-separated bit-error rates", floats)
	kills := checked(fs, "kills", "0,1", "comma-separated primary-path link-kill counts", ints)
	return func(e *env) error {
		rows, err := core.APMSweep(e.ctx, e.pool, *bers, *kills, e.base)
		return emit(e, "Robustness. RC recovery: NAK, backoff, and automatic path migration vs primary-path kills", "apm", rows, err)
	}
}

func driftFlags(fs *flag.FlagSet) func(*env) error {
	periods := checked(fs, "periods-us", "0,200,50", "comma-separated audit sweep periods (us); 0 = no auditor baseline", micros)
	return func(e *env) error {
		rows, err := core.DriftSweep(e.ctx, e.pool, *periods, e.base)
		return emit(e, "Policy plane. Out-of-band switch-state corruption vs the declarative drift auditor", "drift", rows, err)
	}
}

func splitBrainFlags(fs *flag.FlagSet) func(*env) error {
	partitions := checked(fs, "partitions-us", "80,160,320", "comma-separated partition durations (us)", micros)
	heartbeats := checked(fs, "heartbeats-us", "10,20", "comma-separated heartbeat intervals (us)", micros)
	rekeys := checked(fs, "rekeys-us", "0,60", "comma-separated rekey periods (us); 0 disables rotation", micros)
	return func(e *env) error {
		rows, err := core.SplitBrainSweep(e.ctx, e.pool, *partitions, *heartbeats, *rekeys, e.base)
		return emit(e, "Robustness. Subnet bisection: containment, dual-master window, merge reconciliation", "splitbrain", rows, err)
	}
}

func congestionFlags(fs *flag.FlagSet) func(*env) error {
	rates := checked(fs, "rates", "0.25,0.5,1.0", "comma-separated attacker injection rates (fraction of line rate)", floats)
	return func(e *env) error {
		rows, err := core.CongestionSweep(e.ctx, e.pool, *rates, e.base)
		return emit(e, "Robustness. FECN/BECN congestion control vs DoS injection rate (attack covers first 60% of the run)", "congestion", rows, err)
	}
}

func healthFlags(fs *flag.FlagSet) func(*env) error {
	bers := checked(fs, "bers", "1e-4", "comma-separated peak bit-error rates for the degraded link", floats)
	return func(e *env) error {
		rows, err := core.HealthSweep(e.ctx, e.pool, *bers, e.base)
		return emit(e, "Robustness. Flaky-link quarantine (PerfMgr) vs gray failure (ramp) and oscillating BER (osc)", "health", rows, err)
	}
}

func traceFlags(fs *flag.FlagSet) func(*env) error {
	events := checked(fs, "events", "30", "how many trailing events to print", within(strconv.Atoi, func(v int) bool { return v >= 0 }, "a non-negative count"))
	return func(e *env) error {
		cfg := e.base
		cfg.Duration = 200 * sim.Microsecond
		cfg.Warmup = 0
		cfg.Attackers = 1
		cfg.TraceCapacity = 65536
		cl, err := core.Build(cfg)
		if err != nil {
			return err
		}
		cl.Simulate()
		all := cl.Trace.Events()
		fmt.Fprintf(e.stdout, "Packet-lifecycle trace: %d events recorded, last %d:\n", cl.Trace.Total(), *events)
		for _, ev := range all[max(0, len(all)-*events):] {
			fmt.Fprintln(e.stdout, " ", ev)
		}
		fmt.Fprintln(e.stdout, "\nCounts by kind:")
		counts := cl.Trace.CountByKind()
		for _, kind := range sortedKeys(counts) {
			fmt.Fprintf(e.stdout, "  %-12v %d\n", kind, counts[kind])
		}
		return nil
	}
}

// sortedKeys returns m's keys in ascending order: map iteration order
// must never reach stdout (same seed, same bytes).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// allFlags chains every other row of the table, each with its default
// flags. A failing step does not abort the chain anonymously: each
// failure is attributed to its experiment, the remaining experiments
// still run, and the command exits non-zero listing exactly what broke.
func allFlags(*flag.FlagSet) func(*env) error {
	return func(e *env) error {
		var failures []error
		for _, x := range experiments {
			if x.name == "all" {
				continue
			}
			body, err := parse(x, nil, e.stderr)
			if err == nil {
				err = body(e)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", x.name, err)
				fmt.Fprintf(e.stderr, "ibsim: %v\n", err)
				failures = append(failures, err)
			}
			fmt.Fprintln(e.stdout)
			if e.ctx.Err() != nil {
				break // interrupted: stop chaining
			}
		}
		fmt.Fprintf(e.stderr, "ibsim: runner counters: %s\n", e.pool.Counters())
		if len(failures) > 0 {
			return fmt.Errorf("%d/%d experiments failed:\n%w", len(failures), len(experiments)-1, errors.Join(failures...))
		}
		return nil
	}
}
