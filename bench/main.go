// Command bench is the repository's one benchmark: host time and memory
// per simulated packet-hop on four fixed workloads, per-layer rigs that
// time each internal package's exported functions in isolation, and a
// traced run that counts what each layer did. See README.md for the
// metric glossary and BENCHMARK.json (repository root) for the contract.
//
// Every number is taken from outside the program under test: timing calls
// into the public API, reading the devices' own counters, and a
// benchmark-owned fabric.Observer installed through Config.Params.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// Report is bench/out/latest.json.
type Report struct {
	Schema    int                        `json:"schema"`
	Claim     *string                    `json:"claim"` // this benchmark measures; it claims no gain
	Host      HostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Quick     bool                       `json:"quick"`
	Workloads map[string]*WorkloadReport `json:"workloads"`
	Rigs      map[string]Sample          `json:"rigs,omitempty"`
}

// HostInfo records where the host-time numbers were taken.
type HostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// WorkloadReport is one workload's results.
type WorkloadReport struct {
	Why       string            `json:"why"`
	Ops       int               `json:"ops"`
	OpsFailed int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"digest"`
	Hops      uint64            `json:"hops"`
	EndToEnd  map[string]Sample `json:"end_to_end,omitempty"`
	Traced    map[string]Value  `json:"traced,omitempty"`

	simS             []float64 // untraced Simulate seconds per repetition
	gcN, gcPauseMS   []float64
	gcCPUShare       []float64
	mallocs, allocBs []float64
}

// options are the resolved run parameters.
type options struct {
	seed       int64
	quick      bool
	scale      int           // Duration divisor
	reps       int           // minimum untraced repetitions
	total      time.Duration // a driver invocation's whole budget; 0 = none
	budget     time.Duration // of which set-up batches and repetitions; 0 = reps only
	e2e        bool          // measure set-up time, report end-to-end metrics
	layers     bool          // run rigs and the traced repetition
	setupN     int
	setupBatch time.Duration
	rigBatches int
	rigBatch   time.Duration
	pinDigests bool // compare digests with testdata/digests.json
	outDir     string
}

func (wr *WorkloadReport) fail(format string, args ...any) {
	wr.OpsFailed++
	wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
}

// measure runs the untraced repetitions of w (and, with o.e2e, the set-up
// batches) within the budget and fills the end-to-end metrics.
func measure(w workload, o options, pinned map[string]string) *WorkloadReport {
	wr := &WorkloadReport{Why: w.Why}
	start := time.Now()
	var setup []float64
	if o.e2e {
		var err error
		if setup, err = measureSetup(w, o.seed, o.scale, o.setupN, o.setupBatch); err != nil {
			wr.Ops++
			wr.fail("setup: %v", err)
			return wr
		}
	}
	var hopsPerS []float64
	var longest time.Duration
	for rep := 0; rep < o.reps || time.Since(start)+longest < o.budget; rep++ {
		t0 := time.Now()
		r := runRep(w, w.config(o.seed, o.scale), nil)
		longest = max(longest, time.Since(t0))
		wr.Ops++
		switch {
		case r.Err != nil:
			wr.fail("rep %d: %v", rep, r.Err)
			continue
		case wr.Digest == "":
			wr.Digest, wr.Hops = r.Digest, r.Hops
		case r.Digest != wr.Digest:
			wr.fail("rep %d: digest %s differs from first repetition's %s", rep, r.Digest, wr.Digest)
			continue
		}
		hops := float64(r.Hops)
		hopsPerS = append(hopsPerS, hops/r.SimS)
		wr.simS = append(wr.simS, r.SimS)
		wr.mallocs = append(wr.mallocs, float64(r.Mallocs)/hops)
		wr.allocBs = append(wr.allocBs, float64(r.AllocByte)/hops)
		wr.gcN = append(wr.gcN, float64(r.NumGC))
		wr.gcPauseMS = append(wr.gcPauseMS, r.GCPauseS*1e3)
		wr.gcCPUShare = append(wr.gcCPUShare, r.GCCPUS/r.SimS)
	}
	if want, ok := pinned[w.Name]; ok && wr.Digest != "" && wr.Digest != want {
		wr.fail("digest %s differs from testdata/digests.json's %s", wr.Digest, want)
	}
	if o.e2e && len(hopsPerS) > 0 {
		wr.EndToEnd = map[string]Sample{
			"hops_per_s":          summarize("hops/s", hopsPerS),
			"allocs_per_hop":      summarize("allocs/hop", wr.mallocs),
			"alloc_bytes_per_hop": summarize("B/hop", wr.allocBs),
			"setup_s":             summarize("s", setup),
		}
	}
	return wr
}

// addTraced adds the per-layer metrics of one traced repetition to wr.
func addTraced(w workload, o options, wr *WorkloadReport, rigs map[string]Sample) {
	if len(wr.simS) == 0 {
		return // every untraced repetition failed; already counted
	}
	wr.Ops++
	m, err := runTraced(w, o.seed, o.scale, rigs, median(wr.simS), wr.Digest, o.outDir)
	if err != nil {
		wr.fail("%v", err)
		return
	}
	m["runtime.num_gc"] = Value{Value: median(wr.gcN), Unit: "count"}
	m["runtime.gc_pause_ms"] = Value{Value: median(wr.gcPauseMS), Unit: "ms"}
	m["runtime.gc_cpu_share"] = Value{Value: median(wr.gcCPUShare), Unit: "ratio"}
	wr.Traced = m
}

func printReport(rep *Report, names []string) {
	for _, name := range names {
		wr := rep.Workloads[name]
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Printf("%s %s %.6g %s (min %.6g max %.6g n=%d)\n", name, d.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
			}
		}
		fmt.Printf("%s ops %d count\n%s ops_failed %d count\n", name, wr.Ops, name, wr.OpsFailed)
		for _, f := range wr.Failures {
			fmt.Printf("%s FAILED %s\n", name, f)
		}
		for _, d := range perLayer {
			if v, ok := wr.Traced[d.Name]; ok {
				fmt.Printf("%s %s %.6g %s\n", name, d.Name, v.Value, v.Unit)
			}
		}
	}
	for _, d := range perLayer {
		if s, ok := rep.Rigs[d.Name]; ok {
			fmt.Printf("rigs %s %.6g %s (min %.6g max %.6g n=%d)\n", d.Name, s.Median, s.Unit, s.Min, s.Max, s.N)
		}
	}
}

// contractLine is the driver's result object: the last line of stdout
// when exactly one workload ran with -trace 0 or 1.
func contractLine(rep *Report, name string, layers bool) ([]byte, bool) {
	wr := rep.Workloads[name]
	metrics := make(map[string]Value)
	complete := true
	if layers {
		for _, d := range perLayer {
			if s, ok := rep.Rigs[d.Name]; ok {
				metrics[d.Name] = Value{Value: s.Median, Unit: d.Unit}
			} else if v, ok := wr.Traced[d.Name]; ok {
				metrics[d.Name] = Value{Value: v.Value, Unit: d.Unit}
			} else {
				complete = false
			}
		}
	} else {
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				metrics[d.Name] = Value{Value: s.Median, Unit: d.Unit}
			} else {
				complete = false
			}
		}
	}
	correct := wr.OpsFailed == 0 && complete
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{correct, wr.Ops, wr.OpsFailed, metrics})
	if err != nil {
		return nil, false
	}
	return line, correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// newOptions resolves the command line into run parameters. seconds > 0
// is a driver invocation whose budget covers everything measured; trace is
// 0 (end-to-end only), 1 (per-layer only) or -1 (both).
func newOptions(seed int64, quick bool, reps, seconds, trace int, outDir string) options {
	o := options{
		seed: seed, quick: quick, scale: 1, reps: reps,
		total: time.Duration(seconds) * time.Second,
		e2e:   trace != 1, layers: trace != 0,
		setupN: 5, setupBatch: 500 * time.Millisecond,
		rigBatches: 5, rigBatch: 200 * time.Millisecond,
		pinDigests: seed == 1 && !quick,
		outDir:     outDir,
	}
	if quick {
		o.scale, o.reps = 10, 2
		o.setupN, o.setupBatch = 2, 20*time.Millisecond
		o.rigBatches, o.rigBatch = 1, 20*time.Millisecond
	}
	if o.total > 0 {
		// Set-up batches take 15% of the budget and repetitions the rest;
		// a per-layer run needs only a short untraced baseline before the
		// rigs and the traced repetition.
		o.setupBatch = o.total * 15 / 100 / time.Duration(o.setupN+1)
		o.budget = o.total
		if !o.e2e {
			o.reps, o.budget = 3, 0
		}
	}
	return o
}

// execute measures the selected workloads under o, prints nothing, and
// writes latest.json and the trace files into o.outDir.
func execute(selected []workload, o options) (*Report, error) {
	pinned := map[string]string{}
	if o.pinDigests {
		if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
			return nil, fmt.Errorf("testdata/digests.json: %w", err)
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &Report{
		Schema: 1,
		Host: HostInfo{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Seed: o.seed, Quick: o.quick,
		Workloads: make(map[string]*WorkloadReport),
	}
	start := time.Now()
	for _, w := range selected {
		rep.Workloads[w.Name] = measure(w, o, pinned)
	}
	if o.layers {
		if o.total > 0 {
			// Fit the rigs into what the budget leaves after the untraced
			// baseline and one traced repetition per workload.
			left := o.total - time.Since(start)*4/3
			o.rigBatch = min(o.rigBatch, max(left/time.Duration(len(rigs)*(o.rigBatches+2)), 5*time.Millisecond))
		}
		var err error
		if rep.Rigs, err = runRigs(o.rigBatches, o.rigBatch); err != nil {
			return nil, err
		}
		for _, w := range selected {
			addTraced(w, o, rep.Workloads[w.Name], rep.Rigs)
		}
	}
	return rep, writeJSON(filepath.Join(o.outDir, "latest.json"), rep)
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "all", "comma-separated workload names, or all")
		seed         = flag.Int64("seed", 1, "simulation seed (reaches only Config.Seed)")
		reps         = flag.Int("reps", 5, "minimum timed repetitions per workload")
		seconds      = flag.Int("seconds", 0, "measuring budget per workload in seconds; repetitions continue past -reps while it lasts")
		traceFlag    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		quick        = flag.Bool("quick", false, "smoke run: durations /10, 2 repetitions, one 20 ms batch per rig")
		outDir       = flag.String("out", "out", "directory for latest.json and trace-<workload>.jsonl")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		showManifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()
	if *showManifest {
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *reps < 1 || *seconds < 0 {
		return fmt.Errorf("-reps must be at least 1 and -seconds not negative")
	}

	var selected []workload
	var names []string
	if *workloadFlag == "all" {
		selected = workloads
	} else {
		for _, name := range strings.Split(*workloadFlag, ",") {
			w, ok := workloadByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	for _, w := range selected {
		names = append(names, w.Name)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	o := newOptions(*seed, *quick, *reps, *seconds, *traceFlag, *outDir)
	rep, err := execute(selected, o)
	if err != nil {
		return err
	}
	printReport(rep, names)
	failed := 0
	for _, wr := range rep.Workloads {
		failed += wr.OpsFailed
	}
	if len(names) == 1 && *traceFlag >= 0 {
		line, correct := contractLine(rep, names[0], o.layers)
		fmt.Println(string(line))
		if !correct {
			return fmt.Errorf("%s: result incomplete or incorrect", names[0])
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
