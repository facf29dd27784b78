//go:build linux

package main

import "syscall"

// workerAttr ties a worker process to its manager: when the manager dies,
// the kernel sends the worker SIGTERM, the signal of an owner's return, so
// the worker hands off its work and leaves instead of outliving its
// manager. The signal fires when the thread that forked the worker exits,
// so a worker must never be started from a goroutine that holds
// runtime.LockOSThread.
func workerAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}
