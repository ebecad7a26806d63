package netperf

// Hot-reload-under-traffic phase: the e1000 driver is hot-reloaded while
// TX worker threads keep pushing packets through the pre-reload
// net_device. A reload must be invisible to the workers: new crossings
// park during the quiesce, in-flight ones drain, stale dispatch through
// the old generation's function addresses redirects to the successor,
// and the device's instance capabilities (descriptor ring, pci_dev /
// net_device aliases) migrate so the redirected crossings still pass
// every check. The phase asserts zero violations and zero worker errors
// and reports the service interruption per reload.

import (
	"fmt"
	"sync/atomic"
	"time"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
)

// ReloadCosts holds the hot-reload phase results.
type ReloadCosts struct {
	Reloads int                   // reloads performed per mode
	Workers int                   // concurrent TX worker threads
	Packets map[core.Mode]int     // packets the workers pushed during the phase
	Quiesce map[core.Mode]float64 // median ns waiting for in-flight crossings
	Total   map[core.Mode]float64 // median ns for the whole reload
	// Migrated counts the per-instance capabilities replayed into the
	// fresh generation on the last enforced reload.
	Migrated int
}

const (
	reloadRounds  = 4
	reloadWorkers = 2
)

// measureReloadMode runs the phase on a fresh rig for one mode.
func measureReloadMode(mode core.Mode, out *ReloadCosts) error {
	rig, err := NewRig(mode)
	if err != nil {
		return err
	}
	defer rig.K.Shutdown()

	stop := make(chan struct{})
	var packets atomic.Int64
	errs := make([]error, reloadWorkers)
	handles := make([]*core.ThreadHandle, reloadWorkers)
	for i := 0; i < reloadWorkers; i++ {
		i := i
		handles[i] = rig.K.Sys.Spawn(fmt.Sprintf("netperf-reload-w%d", i), func(t *core.Thread) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rig.TxPacketOn(t, UDPPayload); err != nil {
					errs[i] = err
					return
				}
				packets.Add(1)
			}
		})
	}

	// Every reload must happen under genuine traffic: wait for the
	// workers to prove they are live before the first swap.
	live := func() bool {
		for _, e := range errs {
			if e != nil {
				return true
			}
		}
		return packets.Load() > 0
	}
	for !live() {
		time.Sleep(100 * time.Microsecond)
	}

	var quiesce, total []float64
	for i := 0; i < reloadRounds; i++ {
		st, err := rig.Ld.Reload(rig.Th, "e1000")
		if err != nil {
			close(stop)
			for _, h := range handles {
				h.Join()
			}
			return fmt.Errorf("netperf: reload %d (%s): %w", i, mode, err)
		}
		quiesce = append(quiesce, float64(st.QuiesceNs))
		total = append(total, float64(st.TotalNs))
		if mode == core.Enforce {
			out.Migrated = st.Migrated
		}
	}
	close(stop)
	for _, h := range handles {
		h.Join()
	}
	for i, werr := range errs {
		if werr != nil {
			return fmt.Errorf("netperf: reload phase (%s) worker %d: %w", mode, i, werr)
		}
	}
	if n := len(rig.K.Sys.Mon.Violations()); n != 0 {
		return fmt.Errorf("netperf: reload phase (%s): %d violations: %v",
			mode, n, rig.K.Sys.Mon.LastViolation())
	}
	out.Packets[mode] = int(packets.Load())
	out.Quiesce[mode] = benchio.Median(quiesce)
	out.Total[mode] = benchio.Median(total)
	return nil
}

// MeasureReload measures the hot-reload-under-live-traffic phase under
// both builds.
func MeasureReload() (*ReloadCosts, error) {
	out := &ReloadCosts{
		Reloads: reloadRounds,
		Workers: reloadWorkers,
		Packets: make(map[core.Mode]int),
		Quiesce: make(map[core.Mode]float64),
		Total:   make(map[core.Mode]float64),
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if err := measureReloadMode(mode, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FormatReload renders the hot-reload phase line.
func FormatReload(r *ReloadCosts) string {
	stock, lxfi := r.Total[core.Off], r.Total[core.Enforce]
	return fmt.Sprintf("%-20s %9.0f ns %12.0f ns %7.0f%%  (%d reloads under TX traffic, %d caps migrated)\n",
		"hot reload", stock, lxfi, benchio.Overhead(stock, lxfi), r.Reloads, r.Migrated)
}
