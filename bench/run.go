package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"ibasec"
	"ibasec/internal/topology"
)

// repResult is one timed Build+Simulate of a workload.
type repResult struct {
	BuildS, SimS       float64
	Hops, Events       uint64
	Mallocs, AllocByte uint64
	NumGC              uint32
	GCPauseS, GCCPUS   float64
	Digest             string
	Res                *ibasec.Results
	Cl                 *ibasec.Cluster
	Err                error
}

// countHops sums simulated packet-hops from the devices' own counters:
// every LID-routed switch forward plus every HCA delivery.
func countHops(mesh *topology.Mesh) (hops, drHops uint64) {
	for _, sw := range mesh.Switches {
		hops += sw.Counters.Get("forwarded")
		drHops += sw.Counters.Get("dr_forwarded")
	}
	for _, h := range mesh.HCAs {
		hops += h.Counters.Get("delivered")
	}
	return hops, drHops
}

// runRep builds and simulates cfg once, timing both calls and taking the
// allocation deltas across them. A panic inside the simulator is reported
// as a failed operation, not a crashed benchmark. afterBuild, when non-nil,
// sees the cluster between the two calls (outside both timed parts).
func runRep(w workload, cfg ibasec.Config, afterBuild func(*ibasec.Cluster)) (r repResult) {
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	t0 := time.Now()
	cl, err := ibasec.Build(cfg)
	t1 := time.Now()
	r.BuildS = t1.Sub(t0).Seconds()
	if err != nil {
		r.Err = fmt.Errorf("build: %w", err)
		return r
	}
	if afterBuild != nil {
		afterBuild(cl)
		t1 = time.Now()
	}
	res := cl.Simulate()
	t2 := time.Now()
	runtime.ReadMemStats(&m1)

	r.Cl, r.Res = cl, res
	r.SimS = t2.Sub(t1).Seconds()
	r.Mallocs, r.AllocByte = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.NumGC = m1.NumGC - m0.NumGC
	r.GCPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	r.GCCPUS = gcCPUSeconds() - gc0
	r.Hops, _ = countHops(cl.Mesh)
	r.Events = cl.Sim.Fired()
	r.Digest = resultDigest(r.Hops, res)
	switch {
	case res.DeliveredLegit == 0:
		r.Err = fmt.Errorf("no legitimate packet delivered")
	case r.Hops == 0:
		r.Err = fmt.Errorf("no packet-hops counted")
	case w.engaged != nil:
		if err := w.engaged(res, cl); err != nil {
			r.Err = fmt.Errorf("mechanism not engaged: %w", err)
		}
	}
	return r
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// garbage collector so far (all GC workers, so it can exceed wall time).
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// digestFields is the explicit, ordered list of scalar Results fields the
// result digest covers. It names what a run means — traffic, enforcement,
// authentication, management-plane and congestion outcomes — and leaves
// out engine internals (Sim.Fired, raw counter maps), so a refactor that
// keeps simulated behaviour keeps the digest.
var digestFields = []string{
	"SentLegit", "DeliveredLegit", "DeliveredUD", "WithheldRT", "AttackDelivered", "HCAViolations",
	"FilterLookups", "FilterDropped", "FilterActivations",
	"TrapsSent", "SIFRegistrations", "KeyExchanges", "PacketsSigned", "AuthOK", "AuthFail",
	"MeanLinkUtil", "MaxLinkUtil",
	"DriftEvents", "DriftRepaired", "AuditMADs", "RepairMADs",
	"FECNMarked", "CNPsSent", "BECNsNotified", "CCTThrottled", "CreditStallNs",
	"Quarantines", "Readmits", "HealthSweepMADs", "HealthTrapMADs", "HealthRerouteMADs",
}

// digestLines renders hops and the listed fields one per line: integers
// as decimal, floats as the hex of their IEEE-754 bits, so the digest is
// exact and platform-independent.
func digestLines(hops uint64, res *ibasec.Results) ([]string, error) {
	lines := []string{"hops=" + strconv.FormatUint(hops, 10)}
	v := reflect.ValueOf(res).Elem()
	for _, name := range digestFields {
		f := v.FieldByName(name)
		if !f.IsValid() {
			return nil, fmt.Errorf("digest: Results has no field %q", name)
		}
		var s string
		switch f.Kind() {
		case reflect.Uint64, reflect.Uint, reflect.Uint32:
			s = strconv.FormatUint(f.Uint(), 10)
		case reflect.Int, reflect.Int64:
			s = strconv.FormatInt(f.Int(), 10)
		case reflect.Float64:
			s = floatHex(f.Float())
		default:
			return nil, fmt.Errorf("digest: field %q has unsupported kind %v", name, f.Kind())
		}
		lines = append(lines, name+"="+s)
	}
	// Delay statistics live behind accessor methods, so they are listed
	// by hand: sample counts and mean microseconds per class.
	for _, l := range []struct {
		name string
		n    uint64
		mean float64
	}{
		{"Realtime.Queuing", res.Realtime.Queuing.N(), res.Realtime.Queuing.Mean()},
		{"Realtime.Network", res.Realtime.Network.N(), res.Realtime.Network.Mean()},
		{"BestEffort.Queuing", res.BestEffort.Queuing.N(), res.BestEffort.Queuing.Mean()},
		{"BestEffort.Network", res.BestEffort.Network.N(), res.BestEffort.Network.Mean()},
	} {
		lines = append(lines, fmt.Sprintf("%s.N=%d", l.name, l.n), l.name+".Mean="+floatHex(l.mean))
	}
	return lines, nil
}

func floatHex(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }

// resultDigest is the SHA-256 of digestLines, hex-encoded.
func resultDigest(hops uint64, res *ibasec.Results) string {
	lines, err := digestLines(hops, res)
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureSetup times ibasec.Build of the workload's config. One Build is
// 0.1-0.3 ms and does not repeat, so it is timed in batches of
// back-to-back Builds lasting at least batch each: one discarded warm-up
// batch, then n batches whose per-Build seconds are returned.
func measureSetup(w workload, seed int64, scale int, n int, batch time.Duration) ([]float64, error) {
	out := make([]float64, 0, n)
	for b := -1; b < n; b++ {
		runtime.GC()
		builds := 0
		t0 := time.Now()
		for time.Since(t0) < batch {
			if _, err := ibasec.Build(w.config(seed, scale)); err != nil {
				return nil, fmt.Errorf("build: %w", err)
			}
			builds++
		}
		if b >= 0 {
			out = append(out, time.Since(t0).Seconds()/float64(builds))
		}
	}
	return out, nil
}
