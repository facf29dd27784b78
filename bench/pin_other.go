//go:build !linux

package main

import "runtime"

// pinThread wires the goroutine to its thread; CPU affinity is not
// available on this platform, so placement stays with the kernel.
func pinThread(int) { runtime.LockOSThread() }
