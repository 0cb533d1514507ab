package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID: CPU time
// consumed by every thread of the process.
const clockProcessCPUTime = 2

// cpuNow returns the process's CPU time so far. Time the hypervisor or
// other processes take from this one does not count, which keeps host
// costs steady on a shared machine.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
