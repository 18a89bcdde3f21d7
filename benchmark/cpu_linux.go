//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat. Linux
// fixes it at 100 for user space on every architecture Go supports.
const userHZ = 100

// processCPU returns the CPU-seconds (user+system, all threads) this process
// has used. The calling thread's share is exact; a thread running on another
// CPU is counted as of its last scheduler tick, an error of at most a tick
// per reading that averages out over the hundreds of readings a window sums.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // cannot fail for a valid who
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <linux/time.h>.
const clockThreadCPUTime = 3

// threadCPU returns the CPU-seconds the calling OS thread has used; callers
// hold runtime.LockOSThread. It reads the thread's CPU clock rather than
// getrusage(RUSAGE_THREAD): the clock brings the running thread's account up
// to date, rusage reports it as of the last scheduler tick, which is
// milliseconds stale — longer than one calibration.
func threadCPU() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)) // cannot fail for a valid clock
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// childCPU returns the CPU-seconds (user+system, all threads) of another
// process. It sums the run time of every thread from
// /proc/<pid>/task/<tid>/schedstat, which the kernel keeps in nanoseconds;
// a kernel built without scheduler statistics leaves the fallback,
// /proc/<pid>/stat, whose clock ticks are 10 ms.
func childCPU(pid int) (float64, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	if files, _ := filepath.Glob(dir + "/task/*/schedstat"); len(files) > 0 {
		var ns int64
		ok := true
		for _, f := range files {
			raw, err := os.ReadFile(f)
			fields := strings.Fields(string(raw))
			if err != nil || len(fields) == 0 {
				continue // the thread exited between Glob and ReadFile
			}
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				ok = false
				break
			}
			ns += n
		}
		if ok && ns > 0 {
			return float64(ns) / 1e9, nil
		}
	}
	raw, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0, fmt.Errorf("reading child CPU time: %w", err)
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis.
	i := strings.LastIndexByte(string(raw), ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("reading child CPU time: malformed %s/stat", dir)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("reading child CPU time: malformed %s/stat", dir)
	}
	return float64(utime+stime) / userHZ, nil
}

// childAttr makes the kernel kill a child if the benchmark dies without
// running its deferred stops (SIGKILL, OOM).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func checkPlatform() error { return nil }
