// Command ibsim regenerates every table and figure of "Security
// Enhancement in InfiniBand Architecture" (IPPS 2005) from the ibasec
// simulator.
//
// Usage:
//
//	ibsim config                 print the Table 1 testbed parameters
//	ibsim fig1   [-class rt|be]  queuing/latency vs number of attackers
//	ibsim fig5   [-duty 0.01]    NoFiltering/DPT/IF/SIF delay comparison
//	ibsim fig6   [-level qp|partition]  authentication overhead
//	ibsim table2 [-p 4]          enforcement cost model
//	ibsim table4 [-bytes 188]    MAC throughput & forgery probability
//	ibsim attacks                Table 3 key-theft matrix
//	ibsim sweep                  ablation: SIF exposure vs attack duty
//	ibsim authrate               ablation: MAC engine speed vs link speed
//	ibsim smdos                  ablation: management DoS against the SM
//	ibsim scale                  ablation: DoS damage vs mesh size
//	ibsim faults                 chaos: link kills + BER bursts vs self-healing SM
//	ibsim failover               robustness: SM kill + standby election + key-epoch rotation
//	ibsim apm                    robustness: RC NAK recovery + automatic path migration
//	ibsim drift                  policy plane: switch-state corruption vs the drift auditor
//	ibsim splitbrain             robustness: subnet bisection, dual-master containment, merge reconciliation
//	ibsim congestion             robustness: FECN/BECN congestion control vs DoS injection rate
//	ibsim health                 robustness: flaky-link quarantine (PerfMgr) vs gray failure and oscillating BER
//	ibsim trace                  dump a packet-lifecycle trace
//	ibsim all                    everything above (trace bounded to its default scope)
//
// Global flags (before the subcommand): -seed, -duration-ms, -quick,
// -list (print the available experiment names and exit),
// -csv <dir> (export each experiment's rows as CSV), -jobs N (parallel
// simulation points, default GOMAXPROCS), -results <dir> (append-only
// JSON-lines result manifest, default "results"; empty disables it),
// -resume (skip points already completed in the manifest — lets an
// interrupted `ibsim all` pick up where it stopped), -watchdog <dur>
// (wall-clock budget per simulation point; a wedged point is abandoned
// with a runner error naming it instead of hanging the sweep; 0
// disables), -cpuprofile / -memprofile (write pprof profiles covering
// the whole run — profile the simulator hot path with e.g.
// `ibsim -cpuprofile cpu.pprof -jobs 1 fig5`).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ibasec"
)

var (
	seed       = flag.Int64("seed", 1, "simulation seed")
	durationMS = flag.Int("duration-ms", 20, "simulated milliseconds per data point")
	quick      = flag.Bool("quick", false, "short runs (2 ms) for smoke testing")
	cpuGHz     = flag.Float64("cpu-ghz", 2.1, "CPU clock for table4 cycles/byte conversion")
	csvDir     = flag.String("csv", "", "also write each experiment's rows to <dir>/<name>.csv")
	jobs       = flag.Int("jobs", 0, "parallel simulation points per sweep (0 = GOMAXPROCS)")
	resultsDir = flag.String("results", "results", "directory for the result manifest; empty disables persistence")
	resume     = flag.Bool("resume", false, "skip points already completed in the result manifest")
	watchdog   = flag.Duration("watchdog", 0, "wall-clock budget per simulation point; a wedged point fails with attribution instead of hanging the sweep (0 disables)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	listFlag   = flag.Bool("list", false, "print the available experiment names, one per line, and exit")
)

// runCtx and pool are the run-wide cancellation context and worker pool
// the sweep subcommands execute under; main wires them before dispatch.
var (
	runCtx context.Context = context.Background()
	pool   *ibasec.Pool
)

// writeCSV dumps rows to <csvDir>/<name>.csv when -csv is set.
func writeCSV(name string, header []string, rows [][]string) error {
	if *csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// writeTable dumps a rendered experiment table to <csvDir>/<Name>.csv
// when -csv is set.
func writeTable(t ibasec.CSVTable) error {
	return writeCSV(t.Name, t.Header, t.Rows)
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func itoa(v uint64) string  { return strconv.FormatUint(v, 10) }

func baseConfig() ibasec.Config {
	cfg := ibasec.DefaultConfig()
	cfg.Seed = *seed
	cfg.Duration = ibasec.Time(*durationMS) * ibasec.Millisecond
	cfg.Warmup = cfg.Duration / 10
	if *quick {
		cfg.Duration = 2 * ibasec.Millisecond
		cfg.Warmup = 200 * ibasec.Microsecond
	}
	return cfg
}

// sweepCommands are the subcommands that execute simulation sweeps
// through the runner (and so can use the pool and result manifest).
var sweepCommands = map[string]bool{
	"fig1": true, "fig5": true, "fig6": true, "sweep": true,
	"authrate": true, "smdos": true, "scale": true, "faults": true,
	"failover": true, "apm": true, "drift": true, "splitbrain": true,
	"congestion": true, "health": true, "all": true,
}

// commands is every subcommand, in the order `ibsim -list` prints them
// (and `ibsim all` runs the sweepable ones).
var commands = []string{
	"config", "fig1", "fig5", "fig6", "table2", "table4", "attacks",
	"sweep", "authrate", "smdos", "scale", "faults", "failover", "apm",
	"drift", "splitbrain", "congestion", "health", "trace", "all",
}

// commandFuncs maps each subcommand to its runner. The registry-sync
// test (main_test.go) holds this, commands, sweepCommands, allSteps,
// and the usage header in lockstep, so a new experiment cannot be
// half-wired: visible in -list but undispatchable, or runnable but
// missing from `ibsim all`.
var commandFuncs = map[string]func(args []string) error{
	"config":     func([]string) error { return runConfig() },
	"fig1":       runFig1,
	"fig5":       runFig5,
	"fig6":       runFig6,
	"table2":     runTable2,
	"table4":     runTable4,
	"attacks":    func([]string) error { return runAttacks() },
	"sweep":      runSweep,
	"authrate":   runAuthRate,
	"smdos":      runSMDoS,
	"scale":      runScale,
	"faults":     runFaults,
	"failover":   runFailover,
	"apm":        runAPM,
	"drift":      runDrift,
	"splitbrain": runSplitBrain,
	"congestion": runCongestion,
	"health":     runHealth,
	"trace":      runTrace,
	"all":        func([]string) error { return runAll() },
}

func main() {
	flag.Parse()
	os.Exit(run())
}

// run carries the real main body; it returns the exit code instead of
// calling os.Exit so the deferred profile writers always flush.
func run() int {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
			}
		}()
	}

	if *listFlag {
		for _, c := range commands {
			fmt.Println(c)
		}
		return 0
	}
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		return 2
	}
	args := flag.Args()[1:]

	// Ctrl-C / SIGTERM cancels cleanly between simulation points; the
	// manifest keeps everything finished so far, so a later -resume run
	// picks up where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx = ctx

	var store *ibasec.Manifest
	if *resultsDir != "" && sweepCommands[cmd] {
		label := fmt.Sprintf("seed=%d duration_ms=%d quick=%v", *seed, *durationMS, *quick)
		var err error
		store, err = ibasec.OpenManifest(filepath.Join(*resultsDir, "manifest.jsonl"), label, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
			return 1
		}
		defer store.Close()
	}
	pool = ibasec.NewPool(ibasec.PoolOptions{
		Workers:  *jobs,
		Retries:  1,
		Progress: os.Stderr,
		Store:    store,
		Watchdog: *watchdog,
	})

	fn, ok := commandFuncs[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "ibsim: unknown command %q\n", cmd)
		return 2
	}
	if err := fn(args); err != nil {
		fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
		return 1
	}
	return 0
}

func runConfig() error {
	cfg := baseConfig()
	fmt.Println("Table 1. IBA simulation testbed parameters")
	fmt.Printf("  Physical link bandwidth      %.1f Gbps\n", cfg.Params.LinkBandwidth/1e9)
	fmt.Printf("  Ports per switch             5 (4x4 mesh, one HCA per switch)\n")
	fmt.Printf("  VLs per physical link        16 (VL0 best-effort, VL1 realtime, VL15 management)\n")
	fmt.Printf("  MTU                          %d bytes\n", cfg.MsgSize)
	fmt.Printf("  Credits per VL               %d packets\n", cfg.Params.CreditsPerVL)
	fmt.Printf("  Switch lookup latency        %v\n", cfg.Params.SwitchLookup)
	fmt.Printf("  Core clock cycle             %v\n", cfg.Params.ClockCycle)
	fmt.Printf("  Partitions                   %d random groups\n", cfg.NumPartitions)
	fmt.Printf("  Simulated time per point     %v (warmup %v)\n", cfg.Duration, cfg.Warmup)
	return nil
}

func runFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	classFlag := fs.String("class", "both", "rt, be, or both")
	attackers := fs.Int("attackers", 4, "maximum number of attackers")
	arb := fs.String("arb", "strict", "VL arbiter: strict or weighted (ablation)")
	fs.Parse(args)

	base := baseConfig()
	base.RealtimeLoad = 0.7
	base.BestEffortLoad = 0.65
	if *arb == "weighted" {
		p := *base.Params
		p.Arbitration = ibasec.ArbWeighted
		p.HighPriLimit = 2
		base.Params = &p
	}

	show := func(name string, class ibasec.Class) error {
		rows, err := ibasec.Fig1Ctx(runCtx, pool, class, *attackers, base)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 1(%s). Average queuing time & network latency under DoS (%s traffic)\n",
			map[ibasec.Class]string{ibasec.ClassRealtime: "a", ibasec.ClassBestEffort: "b"}[class], name)
		fmt.Println("  attackers   queuing(us)   sd      network(us)   sd      delivered   attack-pkts")
		for _, r := range rows {
			fmt.Printf("  %9d   %11.2f   %-6.1f  %11.2f   %-6.1f  %9d   %d\n",
				r.Attackers, r.QueuingUS, r.QueuingSD, r.NetworkUS, r.NetworkSD, r.Delivered, r.AttackHits)
		}
		fmt.Println()
		return writeTable(ibasec.Fig1CSV("fig1_"+name, rows))
	}
	if *classFlag == "rt" || *classFlag == "both" {
		if err := show("realtime", ibasec.ClassRealtime); err != nil {
			return err
		}
	}
	if *classFlag == "be" || *classFlag == "both" {
		if err := show("best-effort", ibasec.ClassBestEffort); err != nil {
			return err
		}
	}
	return nil
}

func runFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	duty := fs.Float64("duty", 0.01, "fraction of time the DoS attack is active")
	fs.Parse(args)

	base := baseConfig()
	base.AttackCycle = base.Duration / 4
	rows, err := ibasec.Fig5Ctx(runCtx, pool, []float64{0.4, 0.5, 0.6, 0.7}, *duty, base)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 5. Delay comparison among No Filtering, DPT, IF, SIF (4 attackers, %.0f%% duty)\n", *duty*100)
	fmt.Println("  load   mode         queuing(us)  network(us)  total(us)  sd(q)    filtered  leaked")
	for _, r := range rows {
		fmt.Printf("  %3.0f%%   %-11s  %11.2f  %11.2f  %9.2f  %-7.1f  %8d  %d\n",
			r.Load*100, r.Mode, r.QueuingUS, r.NetworkUS, r.TotalUS, r.QueuingSD, r.Dropped, r.AttackHits)
	}
	return writeTable(ibasec.Fig5CSV(rows))
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	levelFlag := fs.String("level", "qp", "key management level: qp or partition")
	fs.Parse(args)

	level := ibasec.QPLevel
	if *levelFlag == "partition" {
		level = ibasec.PartitionLevel
	}
	base := baseConfig()
	rows, err := ibasec.Fig6Ctx(runCtx, pool, []float64{0.4, 0.5, 0.6, 0.7}, level, base)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 6. Message authentication overhead with key initialization (%v keys)\n", level)
	fmt.Println("  load   keys     queuing(us)  sd       network(us)  sd       key-exchanges  signed")
	for _, r := range rows {
		label := "No Key"
		if r.WithKey {
			label = "WithKey"
		}
		fmt.Printf("  %3.0f%%   %-8s %11.2f  %-7.1f  %11.2f  %-7.1f  %13d  %d\n",
			r.Load*100, label, r.QueuingUS, r.QueuingSD, r.NetworkUS, r.NetworkSD, r.KeyExchanges, r.PacketsSigned)
	}
	return writeTable(ibasec.Fig6CSV(rows))
}

func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	p := fs.Int("p", 4, "partitions joined per node")
	pr := fs.Float64("pr", 0.01, "Pr(n): probability a node attacks")
	avg := fs.Float64("avg", 2, "Avg(p): mean Invalid_P_Key_Table entries")
	fs.Parse(args)

	rows := ibasec.Table2(*p, *pr, *avg)
	fmt.Printf("Table 2. Partition enforcement overhead (n=16, s=16, p=%d, Pr=%.2f, Avg=%.1f)\n", *p, *pr, *avg)
	fmt.Println("  mode  mem/switch  mem/all-switches  lookups/pkt(linear f)  lookups/pkt(1-cycle f)")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("  %-4s  %10.2f  %16.2f  %21.4f  %22.4f\n",
			r.Mode, r.MemPerSwitch, r.MemAll, r.LookupLinear, r.LookupConst)
		csvRows = append(csvRows, []string{
			r.Mode.String(), ftoa(r.MemPerSwitch), ftoa(r.MemAll), ftoa(r.LookupLinear), ftoa(r.LookupConst),
		})
	}
	return writeCSV("table2", []string{"mode", "mem_per_switch", "mem_all", "lookups_linear", "lookups_const"}, csvRows)
}

func runTable4(args []string) error {
	fs := flag.NewFlagSet("table4", flag.ExitOnError)
	bytes := fs.Int("bytes", 188, "message size (paper: 1500 bits)")
	budget := fs.Duration("budget", 200*time.Millisecond, "measurement budget per algorithm")
	fs.Parse(args)

	rows := ibasec.Table4(*bytes, *budget, *cpuGHz)
	fmt.Printf("Table 4. Time & forgery complexity (%d-byte messages, cycles at %.1f GHz)\n", *bytes, *cpuGHz)
	fmt.Println("  algorithm   cycles/byte   Gbits/sec   forgery probability")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("  %-10s  %11.2f  %10.2f   %.3g\n", r.Name, r.CyclesByte, r.GbitsPerSec, r.ForgeryProb)
		csvRows = append(csvRows, []string{r.Name, ftoa(r.CyclesByte), ftoa(r.GbitsPerSec), strconv.FormatFloat(r.ForgeryProb, 'g', 6, 64)})
	}
	return writeCSV("table4", []string{"algorithm", "cycles_per_byte", "gbits_per_sec", "forgery_prob"}, csvRows)
}

func runAttacks() error {
	fmt.Println("Table 3. IBA key vulnerability: attacks vs plain IBA and vs ICRC-as-MAC")
	for _, o := range ibasec.AttackMatrix(*seed) {
		fmt.Println(" ", o)
	}
	return nil
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	load := fs.Float64("load", 0.4, "best-effort input load")
	fs.Parse(args)

	base := baseConfig()
	base.AttackCycle = base.Duration / 4
	rows, err := ibasec.SweepDutyCtx(runCtx, pool, []float64{0.005, 0.01, 0.05, 0.1, 0.25}, *load, base)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation. SIF exposure vs attack duty cycle (load %.0f%%)\n", *load*100)
	fmt.Println("  duty     queuing(us)  network(us)  filtered  leaked-to-victims")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("  %5.1f%%  %11.2f  %11.2f  %8d  %d\n",
			r.Load*100, r.QueuingUS, r.NetworkUS, r.Dropped, r.AttackHits)
		csvRows = append(csvRows, []string{ftoa(r.Load), ftoa(r.QueuingUS), ftoa(r.NetworkUS), itoa(r.Dropped), itoa(r.AttackHits)})
	}
	return writeCSV("sweep_duty", []string{"duty", "queuing_us", "network_us", "filtered", "leaked"}, csvRows)
}

func runAuthRate(args []string) error {
	fs := flag.NewFlagSet("authrate", flag.ExitOnError)
	load := fs.Float64("load", 0.5, "best-effort input load")
	fs.Parse(args)

	base := baseConfig()
	rows, err := ibasec.AuthRateSweepCtx(runCtx, pool, ibasec.PaperTable4Rates(), *load, base)
	if err != nil {
		return err
	}
	fmt.Printf("Section 5.2/7. Can the MAC keep up with the link? (load %.0f%%, Table 4 rates)\n", *load*100)
	fmt.Println("  algorithm   engine(Gb/s)  queuing(us)  network(us)  delivered  bottleneck?")
	var csvRows [][]string
	for _, r := range rows {
		mark := ""
		if r.Bottleneck {
			mark = "  <-- slower than the 2.5 Gb/s link"
		}
		fmt.Printf("  %-10s  %12.2f  %11.2f  %11.2f  %9d%s\n",
			r.Name, r.RateGbps, r.QueuingUS, r.NetworkUS, r.Delivered, mark)
		csvRows = append(csvRows, []string{r.Name, ftoa(r.RateGbps), ftoa(r.QueuingUS), ftoa(r.NetworkUS), itoa(r.Delivered)})
	}
	return writeCSV("authrate", []string{"algorithm", "rate_gbps", "queuing_us", "network_us", "delivered"}, csvRows)
}

func runSMDoS(args []string) error {
	fs := flag.NewFlagSet("smdos", flag.ExitOnError)
	fs.Parse(args)

	base := baseConfig()
	rows, err := ibasec.SMFloodSweepCtx(runCtx, pool, []float64{0, 50e3, 200e3, 400e3, 450e3}, base)
	if err != nil {
		return err
	}
	fmt.Println("Section 7. Management DoS: SIF registration latency vs MAD flood rate")
	fmt.Println("  flood(MAD/s)  reg-latency mean(us)  max(us)   MADs processed   legit registrations")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("  %12.0f  %20.2f  %7.2f   %14d   %d\n",
			r.FloodRate, r.RegLatencyUS, r.RegLatencyMax, r.TrapsReceived, r.Registrations)
		csvRows = append(csvRows, []string{ftoa(r.FloodRate), ftoa(r.RegLatencyUS), ftoa(r.RegLatencyMax), itoa(r.TrapsReceived), itoa(r.Registrations)})
	}
	return writeCSV("smdos", []string{"flood_rate", "reg_latency_us", "reg_latency_max_us", "mads_processed", "registrations"}, csvRows)
}

func runScale(args []string) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	load := fs.Float64("load", 0.5, "best-effort input load")
	fs.Parse(args)

	base := baseConfig()
	base.BestEffortLoad = *load
	base.RealtimeLoad = 0
	rows, err := ibasec.ScaleSweepCtx(runCtx, pool, [][2]int{{2, 2}, {4, 4}, {6, 6}, {8, 8}}, base)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation. DoS damage vs fabric size (load %.0f%%, nodes/4 attackers)\n", *load*100)
	fmt.Println("  mesh   nodes  attackers  base queue(us)  attacked queue(us)  base net(us)  attacked net(us)")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("  %dx%d    %5d  %9d  %14.2f  %18.2f  %12.2f  %15.2f\n",
			r.W, r.H, r.Nodes, r.Attackers, r.BaseQueuingUS, r.AttackQueuingUS, r.BaseNetworkUS, r.AttackNetworkUS)
		csvRows = append(csvRows, []string{
			fmt.Sprintf("%dx%d", r.W, r.H), itoa(uint64(r.Nodes)), itoa(uint64(r.Attackers)),
			ftoa(r.BaseQueuingUS), ftoa(r.AttackQueuingUS), ftoa(r.BaseNetworkUS), ftoa(r.AttackNetworkUS),
		})
	}
	return writeCSV("scale", []string{"mesh", "nodes", "attackers", "base_queuing_us", "attack_queuing_us", "base_network_us", "attack_network_us"}, csvRows)
}

// parseFloats and parseInts split comma-separated flag values.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func runFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	bersFlag := fs.String("bers", "0,1e-6,1e-5", "comma-separated bit-error rates")
	killsFlag := fs.String("kills", "0,1,2", "comma-separated concurrent link-kill counts")
	fs.Parse(args)

	bers, err := parseFloats(*bersFlag)
	if err != nil {
		return fmt.Errorf("faults: -bers: %w", err)
	}
	kills, err := parseInts(*killsFlag)
	if err != nil {
		return fmt.Errorf("faults: -kills: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.FaultsSweepCtx(runCtx, pool, bers, kills, base)
	if err != nil {
		return err
	}
	fmt.Println("Chaos. Deterministic link kills + BER bursts vs the self-healing SM")
	fmt.Println("  mode  ber      kills  delivered  blackholed  hoq-drop  crc-rej  rc-del/sent  rc-p99(us)  detect(us)  reroute(us)  sweeps")
	for _, r := range rows {
		fmt.Printf("  %-4s  %-7g  %5d  %8.4f%%  %10d  %8d  %7d  %5d/%-5d  %10.1f  %10.1f  %11.1f  %d\n",
			r.Mode, r.BER, r.LinkKills, r.DeliveredFrac*100, r.Blackholed, r.HOQDropped, r.CRCRejected,
			r.RCDelivered, r.RCSent, r.RCLatencyP99US, r.DetectUS, r.RerouteUS, r.Resweeps)
	}
	return writeTable(ibasec.FaultsCSV(rows))
}

func runFailover(args []string) error {
	fs := flag.NewFlagSet("failover", flag.ExitOnError)
	standbysFlag := fs.String("standbys", "0,1,2", "comma-separated standby SM counts (0 = no HA baseline)")
	heartbeatsFlag := fs.String("heartbeats-us", "50,100", "comma-separated heartbeat intervals (us)")
	rekeysFlag := fs.String("rekeys-us", "0,300", "comma-separated rekey periods (us); 0 disables rotation")
	fs.Parse(args)

	standbys, err := parseInts(*standbysFlag)
	if err != nil {
		return fmt.Errorf("failover: -standbys: %w", err)
	}
	heartbeats, err := parseInts(*heartbeatsFlag)
	if err != nil {
		return fmt.Errorf("failover: -heartbeats-us: %w", err)
	}
	rekeys, err := parseInts(*rekeysFlag)
	if err != nil {
		return fmt.Errorf("failover: -rekeys-us: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.FailoverSweepCtx(runCtx, pool, standbys, heartbeats, rekeys, base)
	if err != nil {
		return err
	}
	fmt.Println("Robustness. SM kill + standby election + online key-epoch rotation")
	fmt.Println("  sb  hb(us)  rekey(us)  takeovers  elect(us)  takeover(us)  mads-rec  mads-lost  rollovers  forced  grace-miss  ok-grace  auth-fail  regs-pre/post")
	for _, r := range rows {
		fmt.Printf("  %2d  %6.0f  %9.0f  %9d  %9.1f  %12.1f  %8d  %9d  %9d  %6d  %10d  %8d  %9d  %6d/%d\n",
			r.Standbys, r.HeartbeatUS, r.RekeyUS, r.Takeovers, r.ElectionUS, r.TakeoverUS,
			r.MADsRecover, r.MADsLostDeadSM, r.Rollovers, r.ForcedRotations,
			r.GraceMisses, r.AuthOKGrace, r.AuthFail, r.SIFRegsPre, r.SIFRegsPost)
	}
	return writeTable(ibasec.FailoverCSV(rows))
}

func runAPM(args []string) error {
	fs := flag.NewFlagSet("apm", flag.ExitOnError)
	bersFlag := fs.String("bers", "0,1e-5", "comma-separated bit-error rates")
	killsFlag := fs.String("kills", "0,1", "comma-separated primary-path link-kill counts")
	fs.Parse(args)

	bers, err := parseFloats(*bersFlag)
	if err != nil {
		return fmt.Errorf("apm: -bers: %w", err)
	}
	kills, err := parseInts(*killsFlag)
	if err != nil {
		return fmt.Errorf("apm: -kills: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.APMSweepCtx(runCtx, pool, bers, kills, base)
	if err != nil {
		return err
	}
	fmt.Println("Robustness. RC recovery: NAK, backoff, and automatic path migration vs primary-path kills")
	fmt.Println("  arm        ber      kills  rc-del/sent  delivered  broken  naks  migr  rearm  retrans  storm  alt-drop  p99(us)  max(us)")
	for _, r := range rows {
		fmt.Printf("  %-9s  %-7g  %5d  %5d/%-5d  %8.4f%%  %6d  %4d  %4d  %5d  %7d  %5d  %8d  %7.1f  %7.1f\n",
			r.Arm, r.BER, r.LinkKills, r.RCDelivered, r.RCSent, r.DeliveredFrac*100, r.RCBroken,
			r.NAKs, r.Migrations, r.Rearms, r.Retrans, r.StormMax, r.AltDropped,
			r.RCLatencyP99US, r.RCLatencyMaxUS)
	}
	return writeTable(ibasec.APMCSV(rows))
}

func runDrift(args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	periodsFlag := fs.String("periods-us", "0,200,50", "comma-separated audit sweep periods (us); 0 = no auditor baseline")
	fs.Parse(args)

	periods, err := parseInts(*periodsFlag)
	if err != nil {
		return fmt.Errorf("drift: -periods-us: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.DriftSweepCtx(runCtx, pool, periods, base)
	if err != nil {
		return err
	}
	fmt.Println("Policy plane. Out-of-band switch-state corruption vs the declarative drift auditor")
	fmt.Println("  mode  period(us)  repair  events  repaired  detect(us)  repair(us)  blast  audit-mads  repair-mads")
	for _, r := range rows {
		repair := "off"
		if r.Repair {
			repair = "on"
		}
		fmt.Printf("  %-4s  %10.0f  %-6s  %6d  %8d  %10.1f  %10.1f  %5d  %10d  %d\n",
			r.Mode, r.AuditPeriodUS, repair, r.DriftEvents, r.DriftRepaired,
			r.DetectUS, r.RepairUS, r.Blast, r.AuditMADs, r.RepairMADs)
	}
	return writeTable(ibasec.DriftCSV(rows))
}

func runSplitBrain(args []string) error {
	fs := flag.NewFlagSet("splitbrain", flag.ExitOnError)
	partitionsFlag := fs.String("partitions-us", "80,160,320", "comma-separated partition durations (us)")
	heartbeatsFlag := fs.String("heartbeats-us", "10,20", "comma-separated heartbeat intervals (us)")
	rekeysFlag := fs.String("rekeys-us", "0,60", "comma-separated rekey periods (us); 0 disables rotation")
	fs.Parse(args)

	partitions, err := parseInts(*partitionsFlag)
	if err != nil {
		return fmt.Errorf("splitbrain: -partitions-us: %w", err)
	}
	heartbeats, err := parseInts(*heartbeatsFlag)
	if err != nil {
		return fmt.Errorf("splitbrain: -heartbeats-us: %w", err)
	}
	rekeys, err := parseInts(*rekeysFlag)
	if err != nil {
		return fmt.Errorf("splitbrain: -rekeys-us: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.SplitBrainSweepCtx(runCtx, pool, partitions, heartbeats, rekeys, base)
	if err != nil {
		return err
	}
	fmt.Println("Robustness. Subnet bisection: containment, dual-master window, merge reconciliation")
	fmt.Println("  part(us)  hb(us)  rekey(us)  contain  elect  abdic  merge  dual-master(us)  reconverge(us)  rec-mads  roll  isl-roll  dups  grace-miss  ok-grace  auth-fail")
	for _, r := range rows {
		fmt.Printf("  %8.0f  %6.0f  %9.0f  %7d  %5d  %5d  %5d  %15.1f  %14.1f  %8d  %4d  %8d  %4d  %10d  %8d  %d\n",
			r.PartitionUS, r.HeartbeatUS, r.RekeyUS, r.Containments, r.ContainedTakeovers,
			r.Abdications, r.Merges, r.DualMasterUS, r.ReconvergeUS, r.ReconcileMADs,
			r.Rollovers, r.IslandRollovers, r.DupRequests, r.GraceMisses, r.AuthOKGrace, r.AuthFail)
	}
	return writeTable(ibasec.SplitBrainCSV(rows))
}

func runCongestion(args []string) error {
	fs := flag.NewFlagSet("congestion", flag.ExitOnError)
	ratesFlag := fs.String("rates", "0.25,0.5,1.0", "comma-separated attacker injection rates (fraction of line rate)")
	fs.Parse(args)

	rates, err := parseFloats(*ratesFlag)
	if err != nil {
		return fmt.Errorf("congestion: -rates: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.CongestionSweepCtx(runCtx, pool, rates, base)
	if err != nil {
		return err
	}
	fmt.Println("Robustness. FECN/BECN congestion control vs DoS injection rate (attack covers first 60% of the run)")
	fmt.Println("  mode  rate  cc   be-p99(us)  be-mean(us)  delivered  violations  fecn   cnps   throttled  cct  span  recover(us)  stall(us)")
	for _, r := range rows {
		cc := "off"
		if r.CC {
			cc = "on"
		}
		fmt.Printf("  %-4s  %4.2f  %-3s  %10.2f  %11.2f  %9d  %10d  %5d  %5d  %9d  %3d  %4d  %11.1f  %9.1f\n",
			r.Mode, r.Rate, cc, r.BEp99US, r.BEMeanUS, r.Delivered, r.Violations,
			r.FECNMarked, r.CNPs, r.Throttled, r.AttackerCCT, r.TreeSpan, r.RecoverUS, r.StallUS)
	}
	return writeTable(ibasec.CongestionCSV(rows))
}

func runHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	bersFlag := fs.String("bers", "1e-4", "comma-separated peak bit-error rates for the degraded link")
	fs.Parse(args)

	bers, err := parseFloats(*bersFlag)
	if err != nil {
		return fmt.Errorf("health: -bers: %w", err)
	}

	base := baseConfig()
	rows, err := ibasec.HealthSweepCtx(runCtx, pool, bers, base)
	if err != nil {
		return err
	}
	fmt.Println("Robustness. Flaky-link quarantine (PerfMgr) vs gray failure (ramp) and oscillating BER (osc)")
	fmt.Println("  mode  attack  arm       ber      delivered  crc-rej  lost<q  lost>q  detect(us)  quar  readmit  false  flaps  sweep-mads  trap-mads  reroute-mads")
	for _, r := range rows {
		fmt.Printf("  %-4s  %-6s  %-8s  %-7g  %9d  %7d  %6d  %6d  %10.1f  %4d  %7d  %5d  %5d  %10d  %9d  %d\n",
			r.Mode, r.Attack, r.Arm, r.BER, r.Delivered, r.CRCRejected,
			r.LostBeforeQ, r.LostAfterQ, r.DetectUS, r.Quarantines, r.Readmits,
			r.FalseQuarantines, r.Flaps, r.SweepMADs, r.TrapMADs, r.RerouteMADs)
	}
	return writeTable(ibasec.HealthCSV(rows))
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	events := fs.Int("events", 30, "how many trailing events to print")
	fs.Parse(args)

	cfg := baseConfig()
	cfg.Duration = 200 * ibasec.Microsecond
	cfg.Warmup = 0
	cfg.Attackers = 1
	cfg.TraceCapacity = 65536
	cl, err := ibasec.Build(cfg)
	if err != nil {
		return err
	}
	cl.Simulate()
	all := cl.Trace.Events()
	fmt.Printf("Packet-lifecycle trace: %d events recorded, last %d:\n", cl.Trace.Total(), *events)
	start := len(all) - *events
	if start < 0 {
		start = 0
	}
	for _, ev := range all[start:] {
		fmt.Println(" ", ev)
	}
	fmt.Println("\nCounts by kind:")
	for kind, n := range cl.Trace.CountByKind() {
		fmt.Printf("  %-12v %d\n", kind, n)
	}
	return nil
}

// allSteps is the ordered experiment chain behind `ibsim all`: every
// subcommand except "all" itself. Package-level so the registry-sync
// test can diff it against commands.
var allSteps = []struct {
	name string
	fn   func() error
}{
	{"config", runConfig},
	{"fig1", func() error { return runFig1(nil) }},
	{"fig5", func() error { return runFig5(nil) }},
	{"fig6", func() error { return runFig6(nil) }},
	{"table2", func() error { return runTable2(nil) }},
	{"attacks", runAttacks},
	{"table4", func() error { return runTable4(nil) }},
	{"sweep", func() error { return runSweep(nil) }},
	{"authrate", func() error { return runAuthRate(nil) }},
	{"smdos", func() error { return runSMDoS(nil) }},
	{"scale", func() error { return runScale(nil) }},
	{"faults", func() error { return runFaults(nil) }},
	{"failover", func() error { return runFailover(nil) }},
	{"apm", func() error { return runAPM(nil) }},
	{"drift", func() error { return runDrift(nil) }},
	{"splitbrain", func() error { return runSplitBrain(nil) }},
	{"congestion", func() error { return runCongestion(nil) }},
	{"health", func() error { return runHealth(nil) }},
	{"trace", func() error { return runTrace(nil) }},
}

// runAll chains every experiment (including a bounded trace dump, so
// "everything above" in the usage header means what it says). A failing
// step no longer aborts the chain anonymously: each failure is
// attributed to its experiment, the remaining experiments still run,
// and the command exits non-zero listing exactly what broke.
func runAll() error {
	var failures []error
	for _, s := range allSteps {
		if err := s.fn(); err != nil {
			err = fmt.Errorf("%s: %w", s.name, err)
			fmt.Fprintf(os.Stderr, "ibsim: %v\n", err)
			failures = append(failures, err)
		}
		fmt.Println()
		if runCtx.Err() != nil {
			// Interrupted: stop chaining; the manifest holds every
			// finished point for a later -resume run.
			break
		}
	}
	if pool != nil {
		fmt.Fprintf(os.Stderr, "ibsim: runner counters: %s\n", pool.Counters())
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d/%d experiments failed:\n%w",
			len(failures), len(allSteps), errors.Join(failures...))
	}
	return nil
}
