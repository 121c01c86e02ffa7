package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinPreciseSleep locks the calling goroutine to its thread and asks the
// kernel for 1 ns timer slack on it, so sleepUntil wakes within
// microseconds. The Go scheduler's own timers wake on a millisecond grid,
// which would make every open-loop send up to a millisecond late. The
// thread exits with the goroutine.
func pinPreciseSleep() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}
