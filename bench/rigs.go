package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/policy"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/trace"
	"ibasec/internal/transport"
	"ibasec/internal/umac"
	traffic "ibasec/internal/workload"
)

// batchFn runs n operations of a rig and reports the host time spent in
// the part being measured and how many work units (operations, bytes,
// packet-hops) that time covered.
type batchFn func(n int) (time.Duration, float64)

// rig times one layer's exported functions in isolation. Every rig calls
// only exported API, runs on the benchmark's single goroutine, and keeps
// its state across batches so steady-state cost is what is measured.
type rig struct {
	name   string // timing metric
	unit   string // ns, ns/B, us or ms of host time per work unit
	allocs string // optional metric: heap allocations per work unit
	// prepare builds the rig's state and returns its batch function;
	// counts receives any extra deterministic count the rig reports.
	prepare func(counts map[string]float64) (batchFn, error)
}

// Sinks keep the compiler from discarding measured calls.
var (
	sinkU16   uint16
	sinkU32   uint32
	sinkBool  bool
	sinkBytes []byte
)

const rigPKey = packet.PKey(0x8001)

// loop turns a single operation into a batchFn with one work unit per
// call.
func loop(op func()) batchFn { return loopPer(1, op) }

// loopPer is loop for operations that each cover per work units (bytes).
func loopPer(per float64, op func()) batchFn {
	return func(n int) (time.Duration, float64) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(t0), float64(n) * per
	}
}

// udPacket builds an unsealed UD send with a size-byte payload.
func udPacket(src, dst int, size int, pk packet.PKey) *packet.Packet {
	return &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(src), DLID: topology.LIDOf(dst)},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 2},
		DETH:    &packet.DETH{QKey: 1, SrcQP: 2},
		Payload: make([]byte, size),
	}
}

func sealedPacket(src, dst int, size int) (*packet.Packet, error) {
	p := udPacket(src, dst, size, rigPKey)
	if err := icrc.Seal(p); err != nil {
		return nil, err
	}
	return p, nil
}

func patternBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

func marshalRig(size int) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		p := udPacket(0, 1, size, rigPKey)
		if err := p.Finalize(); err != nil {
			return nil, err
		}
		return loop(func() { sinkBytes = p.Marshal() }), nil
	}
}

// The bit-serial CRC-16 branches on every bit of its running remainder. On
// a fixed input that branch sequence repeats exactly and the host's branch
// predictor learns it, which no workload allows: every packet differs. So
// each CRC rig changes its input between operations — a new PSN per seal,
// a pool of differently sealed packets per verify.

func sealRig(size int) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		p := udPacket(0, 1, size, rigPKey)
		var v icrc.Verifier
		if err := v.Seal(p); err != nil {
			return nil, err
		}
		return loop(func() {
			p.BTH.PSN = (p.BTH.PSN + 1) & 0xFFFFFF
			_ = v.Seal(p) // sealed above: cannot fail
		}), nil
	}
}

// sealedWires returns the wire images of n 1 KiB packets that differ in
// PSN (and so in every CRC remainder after the BTH).
func sealedWires(n int) ([][]byte, error) {
	wires := make([][]byte, n)
	for i := range wires {
		p := udPacket(0, 1, 1024, rigPKey)
		p.BTH.PSN = uint32(i)
		if err := icrc.Seal(p); err != nil {
			return nil, err
		}
		wires[i] = p.Wire()
	}
	return wires, nil
}

// crcRig times a raw CRC over 1 KiB whose leading bytes change per call.
func crcRig(crc func([]byte)) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		buf := patternBytes(1024)
		var i uint32
		return loopPer(float64(len(buf)), func() {
			i++
			binary.LittleEndian.PutUint32(buf, i)
			crc(buf)
		}), nil
	}
}

func tagRig(a mac.Authenticator, size int) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		key := patternBytes(umac.KeySize)
		msg := patternBytes(size)
		if _, err := a.Tag(key, msg, 0); err != nil {
			return nil, err
		}
		nonce := uint64(0)
		return loop(func() {
			nonce++
			sinkU32, _ = a.Tag(key, msg, nonce) // same key and size as the checked call
		}), nil
	}
}

// inspectRig times Filter.Inspect on a lone switch. drop selects the SIF
// case where filtering is active and the packet's P_Key is registered
// invalid; otherwise the packet carries a valid key.
func inspectRig(mode enforce.Mode, ingress, drop bool) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		params := fabric.DefaultParams()
		sw := fabric.NewSwitch(sim.New(), params, "sw", 5)
		f := enforce.NewFilter(mode, params)
		tbl := keys.NewPartitionTable(0)
		entries := 1
		if mode == enforce.DPT {
			entries = 4 // the full network table: every partition
		}
		for i := 0; i < entries; i++ {
			if err := tbl.Add(rigPKey + packet.PKey(i)); err != nil {
				return nil, err
			}
		}
		f.SetSwitchTable(sw, tbl, 0)
		pk := rigPKey
		if drop {
			pk = packet.PKey(0x8F00)
			f.RegisterInvalid(sw, pk)
		}
		d := &fabric.Delivery{Pkt: udPacket(0, 1, 64, pk), Class: fabric.ClassBestEffort}
		if got, _ := f.Inspect(sw, topology.PortHCA, ingress, d); got != drop {
			return nil, fmt.Errorf("inspect %v: drop = %v, want %v", mode, got, drop)
		}
		return loop(func() { sinkBool, _ = f.Inspect(sw, topology.PortHCA, ingress, d) }), nil
	}
}

// hopRig pushes pre-sealed packets through HCA.Send on a statically routed
// 4x4 mesh and reports host time per packet-hop: no seal, no generator,
// no transport. Sources and destinations cycle over all 16 nodes so path
// lengths mix as in the workloads.
func hopRig(size int, eventsKey string) func(map[string]float64) (batchFn, error) {
	return func(counts map[string]float64) (batchFn, error) {
		s := sim.New()
		mesh := topology.NewMesh(s, fabric.DefaultParams(), 4, 4)
		n := mesh.NumNodes()
		pkts := make([]*packet.Packet, n)
		for src := range pkts {
			if err := mesh.HCA(src).PKeyTable.Add(rigPKey); err != nil {
				return nil, err
			}
			p, err := sealedPacket(src, (src*7+3)%n, size)
			if err != nil {
				return nil, err
			}
			pkts[src] = p
		}
		hops := func() uint64 {
			h, _ := countHops(mesh)
			return h
		}
		return func(ops int) (time.Duration, float64) {
			h0, f0 := hops(), s.Fired()
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				src := i % n
				mesh.HCA(src).Send(&fabric.Delivery{Pkt: pkts[src], Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
				if src == n-1 {
					s.Run()
				}
			}
			s.Run()
			el := time.Since(t0)
			dh := float64(hops() - h0)
			if eventsKey != "" && dh > 0 {
				counts[eventsKey] = float64(s.Fired()-f0) / dh
			}
			return el, dh
		}, nil
	}
}

// transportWorld is two endpoints on a 2x1 mesh sharing one partition
// (and, with auth, its UMAC-32 secret).
type transportWorld struct {
	s   *sim.Simulator
	eps [2]*transport.Endpoint
	qps [2]*transport.QP
}

func newTransportWorld(auth bool) (*transportWorld, error) {
	w := &transportWorld{s: sim.New()}
	mesh := topology.NewMesh(w.s, fabric.DefaultParams(), 2, 1)
	cfg := transport.Config{Registry: mac.DefaultRegistry(), KeyLevel: transport.PartitionLevel, RNG: rand.New(rand.NewSource(1))}
	if auth {
		cfg.AuthID = mac.IDUMAC32
	}
	var secret keys.SecretKey
	copy(secret[:], patternBytes(len(secret)))
	for i := range w.eps {
		if err := mesh.HCA(i).PKeyTable.Add(rigPKey); err != nil {
			return nil, err
		}
		w.eps[i] = transport.NewEndpoint(mesh.HCA(i), cfg)
		w.eps[i].Store.InstallPartitionSecret(rigPKey, secret)
		w.qps[i] = w.eps[i].CreateUDQP(rigPKey, packet.QKey(0x10+i))
		w.qps[i].AuthRequired = auth
	}
	return w, nil
}

func (w *transportWorld) sendUD(payload []byte) error {
	return w.eps[0].SendUD(w.qps[0], topology.LIDOf(1), w.qps[1].N, w.qps[1].QKey, payload, fabric.ClassBestEffort)
}

// sendUDRig times Endpoint.SendUD alone (64 B payload): packets are sent
// in chunks and the fabric drained between chunks outside the timed part.
func sendUDRig(auth bool) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		w, err := newTransportWorld(auth)
		if err != nil {
			return nil, err
		}
		payload := patternBytes(64)
		if err := w.sendUD(payload); err != nil {
			return nil, err
		}
		w.s.Run()
		if got := w.eps[1].Counters.Get("delivered"); got != 1 {
			return nil, fmt.Errorf("send_ud rig delivered %d packets, want 1", got)
		}
		return func(n int) (time.Duration, float64) {
			var el time.Duration
			for done := 0; done < n; {
				chunk := min(256, n-done)
				t0 := time.Now()
				for i := 0; i < chunk; i++ {
					_ = w.sendUD(payload) // identical to the checked send above
				}
				el += time.Since(t0)
				w.s.Run()
				done += chunk
			}
			return el, float64(n)
		}, nil
	}
}

// deliverAuthRig times Endpoint.Deliver on one captured UMAC-signed
// 64 B datagram: Q_Key check, tag verification, delivery accounting.
func deliverAuthRig(map[string]float64) (batchFn, error) {
	w, err := newTransportWorld(true)
	if err != nil {
		return nil, err
	}
	var captured *fabric.Delivery
	w.eps[1].HCA().OnDeliver = func(d *fabric.Delivery) { captured = d }
	if err := w.sendUD(patternBytes(64)); err != nil {
		return nil, err
	}
	w.s.Run()
	if captured == nil {
		return nil, fmt.Errorf("deliver_auth rig captured no packet")
	}
	w.eps[1].Deliver(captured)
	if ok := w.eps[1].Counters.Get("auth_ok"); ok != 1 {
		return nil, fmt.Errorf("deliver_auth rig: auth_ok = %d, want 1", ok)
	}
	return loop(func() { w.eps[1].Deliver(captured) }), nil
}

// rcRoundTripRig times one SendRC through to its acknowledgement on a
// connected pair (64 B payload), fabric included.
func rcRoundTripRig(map[string]float64) (batchFn, error) {
	w, err := newTransportWorld(false)
	if err != nil {
		return nil, err
	}
	a, b := w.eps[0].CreateRCQP(rigPKey), w.eps[1].CreateRCQP(rigPKey)
	connected := false
	if err := w.eps[0].ConnectRC(a, topology.LIDOf(1), b.N, func(err error) { connected = err == nil }); err != nil {
		return nil, err
	}
	w.s.Run()
	if !connected {
		return nil, fmt.Errorf("rc rig: connection handshake did not complete")
	}
	payload := patternBytes(64)
	send := func() error {
		if err := w.eps[0].SendRC(a, payload, fabric.ClassBestEffort); err != nil {
			return err
		}
		w.s.Run()
		return nil
	}
	if err := send(); err != nil {
		return nil, err
	}
	if got := w.eps[1].Counters.Get("delivered"); got != 1 || a.Broken() {
		return nil, fmt.Errorf("rc rig: delivered %d, broken %v", got, a.Broken())
	}
	return loop(func() { _ = send() }), nil // identical to the checked send above
}

// discoverRig times a full in-band bring-up (sweep, LID assignment, route
// programming) of a blank 4x4 mesh; building the mesh and attaching the
// agents is outside the timed part.
func discoverRig(counts map[string]float64) (batchFn, error) {
	const mkey = keys.MKey(0x00D15C0FEE)
	return func(n int) (time.Duration, float64) {
		var el time.Duration
		for i := 0; i < n; i++ {
			s := sim.New()
			mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 4, 4)
			sm.AttachSwitchAgents(mesh, mkey)
			for _, h := range mesh.HCAs {
				sm.AttachNodeAgent(h, mkey)
			}
			disc := sm.NewDiscoverer(s, mesh.HCA(0), mkey, 50*sim.Microsecond)
			var topo *sm.DiscoveredTopology
			t0 := time.Now()
			disc.Discover(func(t *sm.DiscoveredTopology) { topo = t })
			s.Run()
			el += time.Since(t0)
			if topo == nil || len(topo.CAs) != mesh.NumNodes() {
				counts["sm.discover_mads"] = 0 // reported as a failed rig by the caller
				return el, float64(n)
			}
			counts["sm.discover_mads"] = float64(topo.Probes + topo.Retries)
		}
		return el, float64(n)
	}, nil
}

func programTablesRig(map[string]float64) (batchFn, error) {
	params := fabric.DefaultParams()
	s := sim.New()
	mesh := topology.NewMesh(s, params, 4, 4)
	filter := enforce.NewFilter(enforce.SIF, params)
	mesh.SetFilterAll(filter)
	cfg := sm.DefaultConfig()
	m := sm.New(s, mesh, filter, cfg)
	for g := 0; g < 4; g++ {
		members := []int{g, g + 4, g + 8, g + 12}
		if err := m.CreatePartition(cfg.MKey, rigPKey+packet.PKey(g), members); err != nil {
			return nil, err
		}
	}
	return loop(m.ProgramSwitchTables), nil
}

func policyCompileRig(map[string]float64) (batchFn, error) {
	doc := &policy.Document{Version: policy.CurrentVersion, Mode: enforce.SIF}
	for g := 0; g < 4; g++ {
		r := policy.Rule{Name: "part-" + strconv.Itoa(g+1), Base: uint16(g + 1)}
		for n := g; n < 16; n += 4 {
			r.Full = append(r.Full, policy.PortRange{First: n, Last: n})
		}
		doc.Rules = append(doc.Rules, r)
	}
	if _, err := policy.Compile(doc, 16); err != nil {
		return nil, err
	}
	return loop(func() { _, _ = policy.Compile(doc, 16) }), nil // compiled above: cannot fail
}

// holdRig is the classic hold model of an event queue: pending events stay
// queued; each operation schedules one at a pseudo-random 1-1024 ns offset
// and fires the earliest.
func holdRig(pending int) func(map[string]float64) (batchFn, error) {
	return func(map[string]float64) (batchFn, error) {
		s := sim.New()
		fn := func() {}
		x := uint32(1)
		next := func() sim.Time {
			x = x*1664525 + 1013904223
			return sim.Time(x>>22+1) * sim.Nanosecond
		}
		for i := 0; i < pending; i++ {
			s.Schedule(next(), fn)
		}
		return loop(func() {
			s.Schedule(next(), fn)
			s.Step()
		}), nil
	}
}

// rigs lists every per-layer rig in the order it runs and prints.
var rigs = []rig{
	{name: "sim.event_ns", unit: "ns", allocs: "sim.event_allocs", prepare: holdRig(1024)},
	{name: "sim.event_32_ns", unit: "ns", prepare: holdRig(32)},

	{name: "packet.marshal_1k_ns", unit: "ns", prepare: marshalRig(1024)},
	{name: "packet.marshal_64b_ns", unit: "ns", prepare: marshalRig(64)},
	{name: "packet.unmarshal_1k_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		p, err := sealedPacket(0, 1, 1024)
		if err != nil {
			return nil, err
		}
		wire := p.Wire()
		var q packet.Packet
		if err := q.Unmarshal(wire); err != nil {
			return nil, err
		}
		return loop(func() { _ = q.Unmarshal(wire) }), nil // parsed above: cannot fail
	}},

	{name: "icrc.crc16_ns_per_byte", unit: "ns/B", prepare: crcRig(func(b []byte) { sinkU16 = icrc.CRC16(b) })},
	{name: "icrc.crc32_ns_per_byte", unit: "ns/B", prepare: crcRig(func(b []byte) { sinkU32 = icrc.CRC32(b) })},
	{name: "icrc.seal_1k_ns", unit: "ns", prepare: sealRig(1024)},
	{name: "icrc.seal_64b_ns", unit: "ns", prepare: sealRig(64)},
	{name: "icrc.verify_1k_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		wires, err := sealedWires(64)
		if err != nil {
			return nil, err
		}
		var v icrc.Verifier
		if ok, err := v.VerifyICRC(wires[0]); err != nil || !ok {
			return nil, fmt.Errorf("sealed packet fails ICRC: %v", err)
		}
		i := 0
		return loop(func() {
			i++
			sinkBool, _ = v.VerifyICRC(wires[i%len(wires)])
		}), nil
	}},
	{name: "icrc.verify_vcrc_1k_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		wires, err := sealedWires(64)
		if err != nil {
			return nil, err
		}
		if ok, err := icrc.VerifyVCRC(wires[0]); err != nil || !ok {
			return nil, fmt.Errorf("sealed packet fails VCRC: %v", err)
		}
		i := 0
		return loop(func() {
			i++
			sinkBool, _ = icrc.VerifyVCRC(wires[i%len(wires)])
		}), nil
	}},

	{name: "mac.umac32_tag_1k_ns", unit: "ns", prepare: tagRig(mac.NewUMAC32(), 1024)},
	{name: "mac.umac32_tag_64b_ns", unit: "ns", prepare: tagRig(mac.NewUMAC32(), 64)},
	{name: "mac.hmac_md5_tag_1k_ns", unit: "ns", prepare: tagRig(mac.NewHMACMD5(), 1024)},
	{name: "mac.hmac_sha1_tag_1k_ns", unit: "ns", prepare: tagRig(mac.NewHMACSHA1(), 1024)},
	{name: "mac.crc32_tag_1k_ns", unit: "ns", prepare: tagRig(mac.NewCRC32(), 1024)},

	{name: "keys.ptable_check_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		t := keys.NewPartitionTable(0)
		for i := 0; i < 4; i++ {
			if err := t.Add(rigPKey + packet.PKey(i)); err != nil {
				return nil, err
			}
		}
		return loop(func() { sinkBool = t.Check(rigPKey + 1) }), nil
	}},
	{name: "keys.node_keypair_ms", unit: "ms", prepare: func(map[string]float64) (batchFn, error) {
		rng := rand.New(rand.NewSource(1))
		return loop(func() { _, _ = keys.GenerateNodeKeyPair(rng) }), nil // rng never fails
	}},
	{name: "keys.envelope_roundtrip_us", unit: "us", prepare: func(map[string]float64) (batchFn, error) {
		rng := rand.New(rand.NewSource(1))
		kp, err := keys.GenerateNodeKeyPair(rng)
		if err != nil {
			return nil, err
		}
		secret, err := keys.NewSecretKey(rng)
		if err != nil {
			return nil, err
		}
		roundTrip := func() error {
			env, err := keys.Seal(rng, kp.Public(), secret)
			if err != nil {
				return err
			}
			got, err := kp.Open(env)
			if err == nil && got != secret {
				err = fmt.Errorf("envelope round trip changed the secret")
			}
			return err
		}
		if err := roundTrip(); err != nil {
			return nil, err
		}
		return loop(func() { _ = roundTrip() }), nil // identical to the checked round trip
	}},

	{name: "enforce.inspect_dpt_ns", unit: "ns", prepare: inspectRig(enforce.DPT, false, false)},
	{name: "enforce.inspect_if_ns", unit: "ns", prepare: inspectRig(enforce.IF, true, false)},
	{name: "enforce.inspect_sif_idle_ns", unit: "ns", prepare: inspectRig(enforce.SIF, true, false)},
	{name: "enforce.inspect_sif_drop_ns", unit: "ns", prepare: inspectRig(enforce.SIF, true, true)},

	{name: "fabric.hop_ns", unit: "ns", allocs: "fabric.hop_allocs", prepare: hopRig(64, "fabric.hop_events")},
	{name: "fabric.hop_1k_ns", unit: "ns", prepare: hopRig(1024, "")},

	{name: "transport.send_ud_ns", unit: "ns", prepare: sendUDRig(false)},
	{name: "transport.send_ud_auth_ns", unit: "ns", prepare: sendUDRig(true)},
	{name: "transport.deliver_auth_ns", unit: "ns", prepare: deliverAuthRig},
	{name: "transport.rc_roundtrip_ns", unit: "ns", prepare: rcRoundTripRig},

	{name: "workload.gen_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		s := sim.New()
		rng := rand.New(rand.NewSource(1))
		traffic.BestEffort(s, rng, 0.3*2.5e9, 64, []int{1, 2, 3}, func(int, int) {})
		return loop(func() { s.Step() }), nil
	}},

	{name: "sm.discover_ms", unit: "ms", prepare: discoverRig},
	{name: "sm.program_tables_us", unit: "us", prepare: programTablesRig},
	{name: "policy.compile_us", unit: "us", prepare: policyCompileRig},
	{name: "topology.newmesh_us", unit: "us", prepare: func(map[string]float64) (batchFn, error) {
		params := fabric.DefaultParams()
		return loop(func() { topology.NewMesh(sim.New(), params, 4, 4) }), nil
	}},
	{name: "topology.routes_avoiding_us", unit: "us", prepare: func(map[string]float64) (batchFn, error) {
		mesh := topology.NewMesh(sim.New(), fabric.DefaultParams(), 4, 4)
		dead := map[topology.LinkID]bool{{Switch: 5, Port: topology.PortEast}: true}
		return loop(func() { mesh.RoutesAvoiding(nil, dead) }), nil
	}},

	{name: "metrics.counter_inc_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		c := metrics.NewCounters()
		return loop(func() { c.Inc("forwarded", 1) }), nil
	}},
	{name: "metrics.welford_add_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		var w metrics.Welford
		x := 0.0
		return loop(func() { x += 0.37; w.Add(x) }), nil
	}},
	{name: "metrics.recorder_add_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		r := metrics.NewRecorder(0, 1000, 2000)
		x := 0.0
		return loop(func() {
			x += 0.37
			if x > 1000 {
				x = 0
			}
			r.Add(x)
		}), nil
	}},

	{name: "runner.job_overhead_us", unit: "us", prepare: func(map[string]float64) (batchFn, error) {
		pool := runner.New(runner.Options{Workers: runtime.NumCPU()})
		jobs := make([]runner.Job[int], 256)
		for i := range jobs {
			i := i
			jobs[i] = runner.Job[int]{Experiment: "bench", Index: i, Key: strconv.Itoa(i),
				Run: func(context.Context) (int, error) { return i, nil }}
		}
		if _, err := runner.Run(context.Background(), pool, jobs); err != nil {
			return nil, err
		}
		return loopPer(float64(len(jobs)), func() { _, _ = runner.Run(context.Background(), pool, jobs) }), nil // no-op jobs: cannot fail
	}},
	{name: "trace.observe_ns", unit: "ns", prepare: func(map[string]float64) (batchFn, error) {
		ring := trace.NewRing(4096)
		d := &fabric.Delivery{Pkt: udPacket(0, 1, 64, rigPKey), Class: fabric.ClassBestEffort}
		return loop(func() { ring.Observe(sim.Microsecond, fabric.ObsForward, "sw0", d) }), nil
	}},
}

var unitNanos = map[string]float64{"ns": 1, "ns/B": 1, "us": 1e3, "ms": 1e6}

// runRig calibrates the operation count so one batch lasts about batch,
// then times batches of them; the Sample is host time per work unit in
// the rig's unit, allocs the heap allocations per work unit over one more
// batch.
func runRig(r rig, counts map[string]float64, batches int, batch time.Duration) (s Sample, allocs float64, err error) {
	fn, err := r.prepare(counts)
	if err != nil {
		return s, 0, fmt.Errorf("%s: %w", r.name, err)
	}
	n := 1
	for {
		el, _ := fn(n)
		if el >= batch/8 || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(batch)/float64(max(el, 1))))
			break
		}
		n *= 2
	}
	vals := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		el, units := fn(n)
		if units <= 0 {
			return s, 0, fmt.Errorf("%s: rig did no work", r.name)
		}
		vals = append(vals, float64(el.Nanoseconds())/units/unitNanos[r.unit])
	}
	if r.allocs != "" {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, units := fn(n)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / units
	}
	return summarize(r.unit, vals), allocs, nil
}

// runRigs runs every rig and returns all per-layer rig metrics by name,
// including the derived ones.
func runRigs(batches int, batch time.Duration) (map[string]Sample, error) {
	out := make(map[string]Sample)
	counts := make(map[string]float64)
	for _, r := range rigs {
		s, allocs, err := runRig(r, counts, batches, batch)
		if err != nil {
			return nil, err
		}
		out[r.name] = s
		if r.allocs != "" {
			out[r.allocs] = summarize("allocs", []float64{allocs})
		}
	}
	mads := counts["sm.discover_mads"]
	if mads == 0 {
		return nil, fmt.Errorf("sm.discover_ms: discovery did not complete")
	}
	out["sm.discover_mads"] = summarize("count", []float64{mads})
	out["sm.mad_roundtrip_us"] = summarize("us", []float64{out["sm.discover_ms"].Median * 1e3 / mads})
	out["fabric.hop_events"] = summarize("count", []float64{counts["fabric.hop_events"]})

	// The paper's Table 4 orders the MACs by cost: CRC < UMAC < MD5 < SHA1.
	order := 0.0
	if out["mac.crc32_tag_1k_ns"].Median < out["mac.umac32_tag_1k_ns"].Median &&
		out["mac.umac32_tag_1k_ns"].Median < out["mac.hmac_md5_tag_1k_ns"].Median &&
		out["mac.hmac_md5_tag_1k_ns"].Median < out["mac.hmac_sha1_tag_1k_ns"].Median {
		order = 1
	}
	out["mac.table4_order_ok"] = summarize("bool", []float64{order})
	return out, nil
}
