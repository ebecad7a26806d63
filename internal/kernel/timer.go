package kernel

// Kernel timers: the other direction of the callback contracts of §2.2
// ("the kernel invokes the poll function pointer at a later time, and
// expects that this points to a legitimate function"). mod_timer's
// annotation requires that the module hold a CALL capability for the
// function it registers, so a compromised module cannot park an
// arbitrary address in the timer wheel and have the kernel jump to it
// on expiry.

import (
	"sort"

	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// TimerFnType is the fptr type timers dispatch through.
const TimerFnType = "timer.fn"

type timer struct {
	id      uint64
	expires uint64
	fn      mem.Addr
	arg     uint64
}

// TimerInit registers the timer exports; call once after New when
// timers are needed.
func (k *Kernel) TimerInit() {
	if k.timerOn {
		return
	}
	k.timerOn = true
	sys := k.Sys

	k.gTimerFn = sys.RegisterFPtrType(TimerFnType,
		[]core.Param{core.P("arg", "u64")}, "")

	// mod_timer(expires, fn, arg): (re)arm a timer. The module must be
	// able to call fn itself.
	sys.RegisterKernelFunc("mod_timer",
		[]core.Param{core.P("expires", "u64"), core.P("fn", "timer_fn_t"), core.P("arg", "u64")},
		"pre(check(call, fn))",
		func(t *core.Thread, args []uint64) uint64 {
			k.mu.Lock()
			defer k.mu.Unlock()
			k.nextTimerID++
			k.timers = append(k.timers, timer{
				id:      k.nextTimerID,
				expires: args[0],
				fn:      mem.Addr(args[1]),
				arg:     args[2],
			})
			return k.nextTimerID
		})

	sys.RegisterKernelFunc("del_timer",
		[]core.Param{core.P("id", "u64")},
		"",
		func(t *core.Thread, args []uint64) uint64 {
			k.mu.Lock()
			defer k.mu.Unlock()
			for i, tm := range k.timers {
				if tm.id == args[0] {
					k.timers = append(k.timers[:i], k.timers[i+1:]...)
					return 1
				}
			}
			return 0
		})
}

// AdvanceTime moves the simulated clock forward and fires every expired
// timer in expiry order. Callbacks run through the checked
// module-indirect-call path, so a timer armed before a module was
// compromised still cannot be redirected afterwards (the function
// address was pinned at mod_timer time).
func (k *Kernel) AdvanceTime(t *core.Thread, now uint64) (fired int) {
	k.mu.Lock()
	k.now = now
	var due []timer
	rest := k.timers[:0]
	for _, tm := range k.timers {
		if tm.expires <= now {
			due = append(due, tm)
		} else {
			rest = append(rest, tm)
		}
	}
	k.timers = rest
	k.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].expires < due[j].expires })
	for _, tm := range due {
		// Dispatch from kernel context through the slot-less checked
		// call (the value was validated when armed; the dispatch still
		// verifies the target exists and runs it under its module's
		// principal via the wrapper).
		if _, err := k.gTimerFn.CallAddr(t, tm.fn, tm.arg); err != nil {
			k.Printk("timer %d: dispatch failed: %v", tm.id, err)
			continue
		}
		fired++
	}
	return fired
}

// PendingTimers returns the number of armed timers.
func (k *Kernel) PendingTimers() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.timers)
}

// Now returns the simulated clock.
func (k *Kernel) Now() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}
