package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU set: 1024 CPUs, as glibc's cpu_set_t.
type cpuMask [1024 / 64]uint64

// allowedCPUs lists the CPUs this process may run on, in order.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread wires the calling goroutine to its OS thread and that thread to
// the slot-th CPU the process may use (modulo their number). The thread
// must not be reused for anything else: leave the goroutine locked, so the
// runtime ends the thread with it. Failure leaves the thread unpinned.
func pinThread(slot int) {
	runtime.LockOSThread()
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		return
	}
	cpu := cpus[slot%len(cpus)]
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
}
