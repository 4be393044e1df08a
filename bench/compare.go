package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b's median is than a's, as a share of a's:
// positive means worse in the metric's own direction.
func worsening(d boundedDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// allBetter reports whether every repetition of b reads better than
// every repetition of a.
func allBetter(d boundedDef, a, b Sample) bool {
	if d.Better == "higher" {
		return b.Min > a.Max
	}
	return b.Max < a.Min
}

// verdict judges one end-to-end metric of b against a: "regressed" when
// the median worsened by more than the bound, "unresolved" when either
// side's own spread is wider than the bound (unless b wins outright),
// "ok" otherwise.
func verdict(d boundedDef, a, b Sample) string {
	if max(a.spread(), b.spread()) > d.Bound && !allBetter(d, a, b) {
		return "unresolved"
	}
	if worsening(d, a.Median, b.Median) > d.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference, the bound and a verdict, and returns an error
// on any regression, differing digest or differing exact traced value.
func compareFiles(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		return fmt.Errorf("runs differ in settings: seed %d/%d, quick %v/%v", a.Seed, b.Seed, a.Quick, b.Quick)
	}
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("the two files share no workload")
	}

	bad, unresolved := 0, 0
	fmt.Printf("%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, d := range endToEnd {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			switch v {
			case "regressed":
				bad++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				name, d.Name, sa.Median, sb.Median, 100*worsening(d, sa.Median, sb.Median), 100*d.Bound, v)
		}
		if wa.Digest != wb.Digest {
			bad++
			fmt.Printf("%-12s digest differs: %s vs %s\n", name, wa.Digest, wb.Digest)
		}
		if wa.OpsFailed+wb.OpsFailed > 0 {
			bad++
			fmt.Printf("%-12s failed operations: %d vs %d\n", name, wa.OpsFailed, wb.OpsFailed)
		}
		for _, d := range perLayer {
			va, okA := wa.Traced[d.Name]
			vb, okB := wb.Traced[d.Name]
			if !okA || !okB {
				continue
			}
			switch {
			case va.Exact && va.Value != vb.Value:
				bad++
				fmt.Printf("%-12s %-20s %14.6g %14.6g  exact value differs\n", name, d.Name, va.Value, vb.Value)
			case d.Name == "core.trace_overhead":
				fmt.Printf("%-12s %-20s %+13.1f%% %+13.1f%%\n", name, d.Name, 100*va.Value, 100*vb.Value)
			}
		}
	}
	fmt.Printf("%d failed, %d unresolved\n", bad, unresolved)
	if bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	return nil
}
