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
	run     func(e *env, args []string) error
}

var experiments = []experiment{
	{"config", "print the Table 1 testbed parameters", runConfig},
	{"fig1", "queuing/latency vs number of attackers", runFig1},
	{"fig5", "NoFiltering/DPT/IF/SIF delay comparison", runFig5},
	{"fig6", "authentication overhead", runFig6},
	{"table2", "enforcement cost model", runTable2},
	{"table4", "MAC throughput & forgery probability (host-timed)", runTable4},
	{"attacks", "Table 3 key-theft matrix", runAttacks},
	{"sweep", "ablation: SIF exposure vs attack duty", runSweep},
	{"authrate", "ablation: MAC engine speed vs link speed", runAuthRate},
	{"smdos", "ablation: management DoS against the SM", runSMDoS},
	{"scale", "ablation: DoS damage vs mesh size", runScale},
	{"faults", "chaos: link kills + BER bursts vs self-healing SM", runFaults},
	{"failover", "robustness: SM kill + standby election + key-epoch rotation", runFailover},
	{"apm", "robustness: RC NAK recovery + automatic path migration", runAPM},
	{"drift", "policy plane: switch-state corruption vs the drift auditor", runDrift},
	{"splitbrain", "robustness: subnet bisection, dual-master containment, merge reconciliation", runSplitBrain},
	{"congestion", "robustness: FECN/BECN congestion control vs DoS injection rate", runCongestion},
	{"health", "robustness: flaky-link quarantine (PerfMgr) vs gray failure and oscillating BER", runHealth},
	{"trace", "dump a packet-lifecycle trace", runTrace},
}

// "all" loops over the table, so it joins the table at init time (a
// literal row would be an initialization cycle).
func init() {
	experiments = append(experiments, experiment{"all", "everything above, each with its default flags", runAll})
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

// errUsage reports bad command-line input that has already been
// explained on stderr together with the flag list; run exits 2 without
// repeating it.
var errUsage = errors.New("usage")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI. It returns the exit code instead of calling
// os.Exit — on every path, bad input included — so the deferred profile
// writers always run, and so tests can drive it in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "simulation seed")
	durationMS := fs.Int("duration-ms", 20, "simulated milliseconds per data point")
	quick := fs.Bool("quick", false, "short runs (2 ms) for smoke testing")
	cpuGHz := fs.Float64("cpu-ghz", 2.1, "CPU clock for table4 cycles/byte conversion")
	csvDir := fs.String("csv", "", "also write each experiment's rows to <dir>/<name>.csv")
	jobs := fs.Int("jobs", 0, "parallel simulation points per sweep (0 = GOMAXPROCS)")
	watchdog := fs.Duration("watchdog", 0, "wall-clock budget per simulation point; a wedged point fails with attribution instead of hanging the sweep (0 disables)")
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
	switch {
	case !(*cpuGHz > 0 && *cpuGHz < math.Inf(1)):
		badValue(fs, "cpu-ghz", fmt.Sprint(*cpuGHz), "a finite clock rate above 0 GHz")
		return 2
	case *jobs < 0:
		badValue(fs, "jobs", strconv.Itoa(*jobs), "a non-negative count (0 = GOMAXPROCS)")
		return 2
	case *watchdog < 0:
		badValue(fs, "watchdog", watchdog.String(), "a non-negative duration (0 disables)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ibsim: %v\n", err)
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
	cmd, args := fs.Arg(0), fs.Args()[1:]
	i := slices.IndexFunc(experiments, func(x experiment) bool { return x.name == cmd })
	if i < 0 {
		fmt.Fprintf(stderr, "ibsim: unknown command %q\n\n", cmd)
		fs.Usage()
		return 2
	}
	x := experiments[i]

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
	switch err := x.run(e, args); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		return fail(err)
	}
}

// flags returns the flag set of one subcommand. Parse errors come back
// to run as errors (see parse) instead of exiting the process.
func (e *env) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("ibsim "+name, flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	return fs
}

// parse parses a subcommand's arguments. The flag package has already
// printed what was wrong and the flag list, hence errUsage.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// badValue rejects a flag value the flag package could not check itself
// (an unknown enum name, a number out of range), reporting it the way
// parse errors are.
func badValue(fs *flag.FlagSet, name, value, want string) error {
	fmt.Fprintf(fs.Output(), "invalid value %q for flag -%s: want %s\n", value, name, want)
	fs.Usage()
	return errUsage
}

// listValue is a comma-separated list flag ("-bers 0,1e-6,1e-5"). It
// keeps the text it parsed so -h shows the default as written.
type listValue[T any] struct {
	text string
	vals *[]T
	conv func(string) (T, error)
}

func (l *listValue[T]) String() string { return l.text }

func (l *listValue[T]) Set(s string) error {
	var vals []T
	for _, f := range strings.Split(s, ",") {
		v, err := l.conv(strings.TrimSpace(f))
		if err != nil {
			return err
		}
		vals = append(vals, v)
	}
	l.text, *l.vals = s, vals
	return nil
}

func listVar[T any](fs *flag.FlagSet, name, def, usage string, conv func(string) (T, error)) *[]T {
	l := &listValue[T]{vals: new([]T), conv: conv}
	if err := l.Set(def); err != nil {
		panic(err) // a default that does not parse is a bug in this file
	}
	fs.Var(l, name, usage)
	return l.vals
}

func floats(fs *flag.FlagSet, name, def, usage string) *[]float64 {
	return listVar(fs, name, def, usage, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

func ints(fs *flag.FlagSet, name, def, usage string) *[]int {
	return listVar(fs, name, def, usage, strconv.Atoi)
}

// maxMicros is the largest microsecond count a sim.Time holds.
const maxMicros = math.MaxInt64 / int64(sim.Microsecond)

// micros is ints for a list of microsecond counts: a count whose
// sim.Time would overflow, and so wrap to some other period than its
// row label shows, is refused at parse time, naming the flag.
func micros(fs *flag.FlagSet, name, def, usage string) *[]int {
	return listVar(fs, name, def, usage, func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err == nil && (int64(v) > maxMicros || int64(v) < -maxMicros) {
			err = fmt.Errorf("want microseconds within ±%d", maxMicros)
		}
		return v, err
	})
}

// emit is every experiment's one output path: the title, the table's
// CSV columns aligned for reading on stdout, and — when -csv is set —
// the same cells as <dir>/<Name>.csv.
func (e *env) emit(title string, t core.CSVTable) error {
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

func runConfig(e *env, _ []string) error {
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

func runFig1(e *env, args []string) error {
	fs := e.flags("fig1")
	classFlag := fs.String("class", "both", "rt, be, or both")
	attackers := fs.Int("attackers", 4, "maximum number of attackers")
	arb := fs.String("arb", "strict", "VL arbiter: strict or weighted (ablation)")
	if err := parse(fs, args); err != nil {
		return err
	}
	classes, ok := map[string][]fabric.Class{
		"rt":   {fabric.ClassRealtime},
		"be":   {fabric.ClassBestEffort},
		"both": {fabric.ClassRealtime, fabric.ClassBestEffort},
	}[*classFlag]
	if !ok {
		return badValue(fs, "class", *classFlag, "rt, be or both")
	}

	base := e.base
	base.RealtimeLoad = 0.7
	base.BestEffortLoad = 0.65
	switch *arb {
	case "strict":
	case "weighted":
		base.Params = base.Params.Clone()
		base.Params.Arbitration = fabric.ArbWeighted
		base.Params.HighPriLimit = 2
	default:
		return badValue(fs, "arb", *arb, "strict or weighted")
	}

	for _, class := range classes {
		letter, name := "b", "best-effort"
		if class == fabric.ClassRealtime {
			letter, name = "a", "realtime"
		}
		rows, err := core.Fig1(e.ctx, e.pool, class, *attackers, base)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 1(%s). Average queuing time & network latency under DoS (%s traffic)", letter, name)
		if err := e.emit(title, core.Table("fig1_"+name, rows)); err != nil {
			return err
		}
		fmt.Fprintln(e.stdout)
	}
	return nil
}

func runFig5(e *env, args []string) error {
	fs := e.flags("fig5")
	duty := fs.Float64("duty", 0.01, "fraction of time the DoS attack is active")
	if err := parse(fs, args); err != nil {
		return err
	}
	base := e.base
	base.AttackCycle = base.Duration / 4
	rows, err := core.Fig5(e.ctx, e.pool, []float64{0.4, 0.5, 0.6, 0.7}, *duty, base)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 5. Delay comparison among No Filtering, DPT, IF, SIF (4 attackers, %.0f%% duty)", *duty*100)
	return e.emit(title, core.Table("fig5", rows))
}

func runFig6(e *env, args []string) error {
	fs := e.flags("fig6")
	levelFlag := fs.String("level", "qp", "key management level: qp or partition")
	if err := parse(fs, args); err != nil {
		return err
	}
	level, ok := map[string]transport.KeyLevel{"qp": transport.QPLevel, "partition": transport.PartitionLevel}[*levelFlag]
	if !ok {
		return badValue(fs, "level", *levelFlag, "qp or partition")
	}
	rows, err := core.Fig6(e.ctx, e.pool, []float64{0.4, 0.5, 0.6, 0.7}, level, e.base)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 6. Message authentication overhead with key initialization (%v keys)", level)
	return e.emit(title, core.Table("fig6", rows))
}

func runTable2(e *env, args []string) error {
	fs := e.flags("table2")
	p := fs.Int("p", 4, "partitions joined per node")
	pr := fs.Float64("pr", 0.01, "Pr(n): probability a node attacks")
	avg := fs.Float64("avg", 2, "Avg(p): mean Invalid_P_Key_Table entries")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *p < 1:
		return badValue(fs, "p", strconv.Itoa(*p), "at least 1")
	case !(*pr >= 0 && *pr <= 1):
		return badValue(fs, "pr", fmt.Sprint(*pr), "a probability in [0, 1]")
	case !(*avg >= 0 && *avg < math.Inf(1)):
		return badValue(fs, "avg", fmt.Sprint(*avg), "a finite non-negative mean")
	}
	title := fmt.Sprintf("Table 2. Partition enforcement overhead (n=16, s=16, p=%d, Pr=%.2f, Avg=%.1f)", *p, *pr, *avg)
	return e.emit(title, core.Table("table2", core.Table2Rows(*p, *pr, *avg)))
}

func runTable4(e *env, args []string) error {
	fs := e.flags("table4")
	bytes := fs.Int("bytes", 188, "message size (paper: 1500 bits)")
	budget := fs.Duration("budget", 200*time.Millisecond, "measurement budget per algorithm")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *bytes < 1 || *bytes > umac.MaxMessage:
		return badValue(fs, "bytes", strconv.Itoa(*bytes), fmt.Sprintf("1 to %d (UMAC's message limit)", umac.MaxMessage))
	case *budget <= 0:
		return badValue(fs, "budget", budget.String(), "a positive duration")
	}
	title := fmt.Sprintf("Table 4. Time & forgery complexity (%d-byte messages, cycles at %.1f GHz)", *bytes, e.cpuGHz)
	return e.emit(title, core.Table("table4", core.Table4(*bytes, *budget, e.cpuGHz)))
}

func runAttacks(e *env, _ []string) error {
	fmt.Fprintln(e.stdout, "Table 3. IBA key vulnerability: attacks vs plain IBA and vs ICRC-as-MAC")
	for _, o := range attack.Matrix(e.base.Seed) {
		fmt.Fprintln(e.stdout, " ", o)
	}
	return nil
}

func runSweep(e *env, args []string) error {
	fs := e.flags("sweep")
	load := fs.Float64("load", 0.4, "best-effort input load")
	if err := parse(fs, args); err != nil {
		return err
	}
	base := e.base
	base.AttackCycle = base.Duration / 4
	rows, err := core.SweepDuty(e.ctx, e.pool, []float64{0.005, 0.01, 0.05, 0.1, 0.25}, *load, base)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Ablation. SIF exposure vs attack duty cycle (load %.0f%%)", *load*100)
	return e.emit(title, core.Table("sweep_duty", rows))
}

func runAuthRate(e *env, args []string) error {
	fs := e.flags("authrate")
	load := fs.Float64("load", 0.5, "best-effort input load")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.AuthRateSweep(e.ctx, e.pool, core.PaperTable4Rates(), *load, e.base)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Section 5.2/7. Can the MAC keep up with the %.1f Gb/s link? (load %.0f%%, Table 4 rates)",
		e.base.Params.LinkBandwidth/1e9, *load*100)
	return e.emit(title, core.Table("authrate", rows))
}

func runSMDoS(e *env, args []string) error {
	if err := parse(e.flags("smdos"), args); err != nil {
		return err
	}
	rows, err := core.SMFloodSweep(e.ctx, e.pool, []float64{0, 50e3, 200e3, 400e3, 450e3}, e.base)
	if err != nil {
		return err
	}
	return e.emit("Section 7. Management DoS: SIF registration latency vs MAD flood rate", core.Table("smdos", rows))
}

func runScale(e *env, args []string) error {
	fs := e.flags("scale")
	load := fs.Float64("load", 0.5, "best-effort input load")
	if err := parse(fs, args); err != nil {
		return err
	}
	base := e.base
	base.BestEffortLoad = *load
	base.RealtimeLoad = 0
	rows, err := core.ScaleSweep(e.ctx, e.pool, [][2]int{{2, 2}, {4, 4}, {6, 6}, {8, 8}}, base)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Ablation. DoS damage vs fabric size (load %.0f%%, nodes/4 attackers)", *load*100)
	return e.emit(title, core.Table("scale", rows))
}

func runFaults(e *env, args []string) error {
	fs := e.flags("faults")
	bers := floats(fs, "bers", "0,1e-6,1e-5", "comma-separated bit-error rates")
	kills := ints(fs, "kills", "0,1,2", "comma-separated concurrent link-kill counts")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.FaultsSweep(e.ctx, e.pool, *bers, *kills, e.base)
	if err != nil {
		return err
	}
	return e.emit("Chaos. Deterministic link kills + BER bursts vs the self-healing SM", core.Table("faults", rows))
}

func runFailover(e *env, args []string) error {
	fs := e.flags("failover")
	standbys := ints(fs, "standbys", "0,1,2", "comma-separated standby SM counts (0 = no HA baseline)")
	heartbeats := micros(fs, "heartbeats-us", "50,100", "comma-separated heartbeat intervals (us)")
	rekeys := micros(fs, "rekeys-us", "0,300", "comma-separated rekey periods (us); 0 disables rotation")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.FailoverSweep(e.ctx, e.pool, *standbys, *heartbeats, *rekeys, e.base)
	if err != nil {
		return err
	}
	return e.emit("Robustness. SM kill + standby election + online key-epoch rotation", core.Table("failover", rows))
}

func runAPM(e *env, args []string) error {
	fs := e.flags("apm")
	bers := floats(fs, "bers", "0,1e-5", "comma-separated bit-error rates")
	kills := ints(fs, "kills", "0,1", "comma-separated primary-path link-kill counts")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.APMSweep(e.ctx, e.pool, *bers, *kills, e.base)
	if err != nil {
		return err
	}
	return e.emit("Robustness. RC recovery: NAK, backoff, and automatic path migration vs primary-path kills", core.Table("apm", rows))
}

func runDrift(e *env, args []string) error {
	fs := e.flags("drift")
	periods := micros(fs, "periods-us", "0,200,50", "comma-separated audit sweep periods (us); 0 = no auditor baseline")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.DriftSweep(e.ctx, e.pool, *periods, e.base)
	if err != nil {
		return err
	}
	return e.emit("Policy plane. Out-of-band switch-state corruption vs the declarative drift auditor", core.Table("drift", rows))
}

func runSplitBrain(e *env, args []string) error {
	fs := e.flags("splitbrain")
	partitions := micros(fs, "partitions-us", "80,160,320", "comma-separated partition durations (us)")
	heartbeats := micros(fs, "heartbeats-us", "10,20", "comma-separated heartbeat intervals (us)")
	rekeys := micros(fs, "rekeys-us", "0,60", "comma-separated rekey periods (us); 0 disables rotation")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.SplitBrainSweep(e.ctx, e.pool, *partitions, *heartbeats, *rekeys, e.base)
	if err != nil {
		return err
	}
	return e.emit("Robustness. Subnet bisection: containment, dual-master window, merge reconciliation", core.Table("splitbrain", rows))
}

func runCongestion(e *env, args []string) error {
	fs := e.flags("congestion")
	rates := floats(fs, "rates", "0.25,0.5,1.0", "comma-separated attacker injection rates (fraction of line rate)")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.CongestionSweep(e.ctx, e.pool, *rates, e.base)
	if err != nil {
		return err
	}
	return e.emit("Robustness. FECN/BECN congestion control vs DoS injection rate (attack covers first 60% of the run)", core.Table("congestion", rows))
}

func runHealth(e *env, args []string) error {
	fs := e.flags("health")
	bers := floats(fs, "bers", "1e-4", "comma-separated peak bit-error rates for the degraded link")
	if err := parse(fs, args); err != nil {
		return err
	}
	rows, err := core.HealthSweep(e.ctx, e.pool, *bers, e.base)
	if err != nil {
		return err
	}
	return e.emit("Robustness. Flaky-link quarantine (PerfMgr) vs gray failure (ramp) and oscillating BER (osc)", core.Table("health", rows))
}

func runTrace(e *env, args []string) error {
	fs := e.flags("trace")
	events := fs.Int("events", 30, "how many trailing events to print")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *events < 0 {
		return badValue(fs, "events", strconv.Itoa(*events), "a non-negative count")
	}
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

// runAll chains every other row of the table, each with its default
// flags. A failing step does not abort the chain anonymously: each
// failure is attributed to its experiment, the remaining experiments
// still run, and the command exits non-zero listing exactly what broke.
func runAll(e *env, _ []string) error {
	var failures []error
	for _, x := range experiments {
		if x.name == "all" {
			continue
		}
		if err := x.run(e, nil); err != nil {
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
