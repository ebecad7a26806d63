package netperf_test

import (
	"encoding/json"
	"testing"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/netperf"
	"lxfi/internal/netstack"
)

func TestRigTxRx(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		rig, err := netperf.NewRig(mode)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		for i := 0; i < 50; i++ {
			if err := rig.TxPacket(netperf.UDPPayload); err != nil {
				t.Fatalf("[%v] tx %d: %v", mode, i, err)
			}
		}
		if rig.Drv.Nic.TxFrames != 50 {
			t.Fatalf("[%v] tx frames = %d", mode, rig.Drv.Nic.TxFrames)
		}
		if err := rig.RxBurst(64, 40); err != nil {
			t.Fatalf("[%v] rx: %v", mode, err)
		}
		if rig.Stack.RxDelivered != 40 {
			t.Fatalf("[%v] rx delivered = %d", mode, rig.Stack.RxDelivered)
		}
		if mode == core.Enforce && rig.K.Sys.Mon.LastViolation() != nil {
			t.Fatalf("violation during netperf: %v", rig.K.Sys.Mon.LastViolation())
		}
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	costs, err := netperf.MeasureCosts(400)
	if err != nil {
		t.Fatal(err)
	}
	// Enforcement must cost more per packet on every path.
	for name, pair := range map[string]map[core.Mode]float64{
		"TxTCP": costs.TxTCP, "TxUDP": costs.TxUDP, "RxUDP": costs.RxUDP,
	} {
		if pair[core.Enforce] <= pair[core.Off] {
			t.Errorf("%s: lxfi %.0fns <= stock %.0fns", name, pair[core.Enforce], pair[core.Off])
		}
	}

	rows := netperf.BuildTable(costs)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byTest := map[string]netperf.Row{}
	for _, r := range rows {
		byTest[r.Test] = r
	}

	// TCP STREAM TX: same throughput (wire-limited), higher CPU.
	tcp := byTest["TCP STREAM TX"]
	if ratio := tcp.LxfiTput / tcp.StockTput; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("TCP TX throughput changed: %.2f", ratio)
	}
	if tcp.LxfiCPU <= tcp.StockCPU {
		t.Errorf("TCP TX CPU did not increase: %v", tcp)
	}

	// UDP STREAM TX: throughput drops (CPU-limited), CPU pinned at 100.
	udp := byTest["UDP STREAM TX"]
	if ratio := udp.LxfiTput / udp.StockTput; ratio >= 0.95 {
		t.Errorf("UDP TX throughput should drop: ratio %.2f", ratio)
	}
	if udp.LxfiCPU < 99 {
		t.Errorf("UDP TX lxfi CPU should be saturated: %.0f", udp.LxfiCPU)
	}

	// UDP STREAM RX: same throughput, CPU near 100 under LXFI.
	udpRx := byTest["UDP STREAM RX"]
	if ratio := udpRx.LxfiTput / udpRx.StockTput; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("UDP RX throughput changed: %.2f", ratio)
	}
	if udpRx.LxfiCPU < 90 || udpRx.StockCPU > udpRx.LxfiCPU {
		t.Errorf("UDP RX CPU shape wrong: %+v", udpRx)
	}

	// RR: the 1-switch (low latency) configuration shows a larger
	// relative slowdown than the multi-switch one (§8.4).
	rrMulti := byTest["UDP RR"]
	rrOne := byTest["UDP RR (1-switch)"]
	dropMulti := 1 - rrMulti.LxfiTput/rrMulti.StockTput
	dropOne := 1 - rrOne.LxfiTput/rrOne.StockTput
	if dropOne <= dropMulti {
		t.Errorf("1-switch RR drop (%.2f) should exceed multi-switch drop (%.2f)", dropOne, dropMulti)
	}
	// And 1-switch absolute rates are higher in both modes.
	if rrOne.StockTput <= rrMulti.StockTput {
		t.Error("1-switch stock RR should be faster than multi-switch")
	}

	if netperf.Format(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestFig13GuardBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rows, err := netperf.GuardBreakdown(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]netperf.GuardRow{}
	for _, r := range rows {
		byName[r.Guard] = r
	}
	// Structural expectations mirroring Fig. 13:
	// entries == exits;
	if byName["Function entry"].PerPacket != byName["Function exit"].PerPacket {
		t.Error("entry and exit guard counts must match")
	}
	// several annotation actions and memory-write checks per packet;
	if byName["Annotation action"].PerPacket < 2 {
		t.Errorf("annotation actions/pkt = %.1f", byName["Annotation action"].PerPacket)
	}
	if byName["Mem-write check"].PerPacket < 2 {
		t.Errorf("mem-write checks/pkt = %.1f", byName["Mem-write check"].PerPacket)
	}
	// writer-set tracking eliminates some slow-path indirect-call checks:
	// slow <= all, with at least one checked driver call per packet.
	all, slow := byName["Kernel ind-call all"].PerPacket, byName["Kernel ind-call e1000"].PerPacket
	if slow > all {
		t.Errorf("slow ind-calls (%.1f) exceed total (%.1f)", slow, all)
	}
	if slow < 1 {
		t.Errorf("expected at least one checked driver ind-call per packet, got %.1f", slow)
	}
	if all < 3 {
		t.Errorf("expected ~3 kernel ind-calls per packet (enqueue, dequeue, xmit), got %.1f", all)
	}
	if netperf.FormatGuards(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestGuardCostsNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c, err := netperf.GuardCosts()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"annotation": c.AnnotationNs, "entry": c.EntryNs, "exit": c.ExitNs,
		"memwrite": c.MemWriteNs, "indfast": c.IndCallFastNs, "indslow": c.IndCallSlowNs,
	} {
		if v < 0 {
			t.Errorf("%s cost negative: %f", name, v)
		}
	}
	// The slow indirect-call path does work the fast path skips. The
	// guard counters prove it: the two paths' timings differ by tens of
	// ns, which one 20k-iteration sample of each cannot resolve.
	rig, err := netperf.NewRig(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow, err := rig.NdoOpenSlots()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		slot      mem.Addr
		slowCalls uint64
	}{{"fast", fast, 0}, {"slow", slow, 1}} {
		before := rig.K.Sys.Mon.Stats.Snapshot()
		if _, err := rig.Th.IndirectCall(c.slot, netstack.NdoOpen, uint64(rig.Drv.Dev)); err != nil {
			t.Fatalf("%s slot: %v", c.name, err)
		}
		d := rig.K.Sys.Mon.Stats.Snapshot().Sub(before)
		if d.IndCallAll != 1 || d.IndCallSlow != c.slowCalls {
			t.Errorf("%s slot: %d indirect calls, %d slow checks; want 1 and %d",
				c.name, d.IndCallAll, d.IndCallSlow, c.slowCalls)
		}
	}
}

// TestConcurrentSocketPairs: the concurrent netperf phase must run one
// worker thread per socket pair with provable overlap, produce positive
// timings under both builds, and record zero violations — every
// socket's instance principal stays confined to its own state even with
// the crossing engine hammered from many threads. (Runs under -race in
// CI's concurrency battery.)
// TestReloadUnderConcurrentTraffic: hot-reload the e1000 driver while
// TX worker threads hammer the pre-reload net_device. Every reload must
// complete (no quiesce deadlock), the workers must see no errors — new
// crossings park and drain rather than drop — and the monitor must
// record zero violations, because the device's instance capabilities
// migrate to the fresh generation before parked crossings resume. (Runs
// under -race in CI's concurrency battery.)
func TestReloadUnderConcurrentTraffic(t *testing.T) {
	rl, err := netperf.MeasureReload()
	if err != nil {
		t.Fatal(err)
	}
	if rl.Reloads < 1 || rl.Workers < 2 {
		t.Fatalf("phase shape: %+v", rl)
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if rl.Packets[mode] < 1 {
			t.Fatalf("[%v] reloads ran without live TX traffic", mode)
		}
		if rl.Total[mode] <= 0 {
			t.Fatalf("[%v] non-positive reload latency", mode)
		}
	}
	if rl.Migrated < 1 {
		t.Fatal("enforced reload migrated no instance capabilities")
	}
}

func TestConcurrentSocketPairs(t *testing.T) {
	c, err := netperf.MeasureConcurrentSockets(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pairs != 4 {
		t.Fatalf("pairs = %d", c.Pairs)
	}
	if !c.Overlapped {
		t.Fatal("workers never overlapped; phase degenerated into a serial run")
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if c.Ns[mode] <= 0 {
			t.Fatalf("[%v] non-positive ns/op", mode)
		}
	}
}

// TestJSONReportShape: the CI artifact carries the four per-packet
// paths and the concurrency, reload and streaming phases, each number
// the gate checks declared with its gate.
func TestJSONReportShape(t *testing.T) {
	costs, err := netperf.MeasureCosts(50)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := netperf.MeasureConcurrentSockets(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := netperf.MeasureReload()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := netperf.MeasureStreaming(64)
	if err != nil {
		t.Fatal(err)
	}
	out, err := netperf.JSON(costs, conc, rl, stream, 50)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchio.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if rep.Bench != "netperf" || rep.Params["packets"] != 50.0 {
		t.Fatalf("bad report header: %s", out)
	}
	var paths []string
	for _, op := range []string{"tx tcp", "tx udp", "rx tcp", "rx udp", "concurrency", "reload/total", "reload/quiesce"} {
		paths = append(paths, op+"/stock_ns", op+"/lxfi_ns")
	}
	paths = append(paths, "concurrency/workers",
		"reload/reloads", "reload/workers", "reload/stock_packets", "reload/lxfi_packets", "reload/migrated_caps",
		"streaming/segments", "streaming/batch_budget",
		"streaming/stock_bytes_per_sec", "streaming/lxfi_bytes_per_sec",
		"streaming/perpkt_crossings_per_byte", "streaming/batch_crossings_per_byte",
		"streaming/crossings_reduction", "streaming/cpu_ratio",
		"streaming/reloads", "streaming/dropped", "streaming/reordered")
	for _, p := range paths {
		if _, ok := rep.Values[p]; !ok {
			t.Fatalf("report is missing %s", p)
		}
		if _, ok := rep.Gates[p]; !ok {
			t.Fatalf("%s declares no gate", p)
		}
	}
	if rep.Values["streaming/dropped"] != 0 || rep.Values["streaming/reordered"] != 0 {
		t.Fatalf("streaming lost segments across the reloads: %s", out)
	}
}
