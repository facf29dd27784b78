//go:build !linux

package main

import "syscall"

// workerAttr sets nothing where the kernel has no parent-death signal: there
// a worker outlives a manager that died and leaves on its own, when its job
// ends or its steals keep failing.
func workerAttr() *syscall.SysProcAttr { return nil }
