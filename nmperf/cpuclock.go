package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU reads CLOCK_THREAD_CPUTIME_ID: the time the calling OS thread
// has spent running. The kernel does not count time the hypervisor stole
// from the virtual CPU, nor time the thread waited for a CPU, so a call
// timed on this clock costs the same on a busy host as on an idle one.
// Callers lock their goroutine to its thread around the timed region.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
