//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The CPU-time metrics need Linux: the thread CPU clock for the calibrator and
// /proc/<pid> for the sigserve child. Other systems get a clear error
// from checkPlatform before any workload starts; these stubs only keep the
// package compiling there.

var errNeedsLinux = errors.New("benchmark: CPU-time metrics need Linux (CLOCK_THREAD_CPUTIME_ID and /proc/<pid>)")

func checkPlatform() error { return errNeedsLinux }

func processCPU() float64 { return 0 }

func threadCPU() float64 { return 0 }

func childCPU(int) (float64, error) { return 0, errNeedsLinux }

func childAttr() *syscall.SysProcAttr { return nil }
