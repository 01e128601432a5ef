package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of this process to the lowest CPU it
// may run on. Threads and child processes created later inherit the
// binding from the thread that creates them. The listing is repeated
// until it finds no new thread, since the runtime may start one while
// the others are bound.
func pinToOneCPU() error {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %v", e)
	}
	var one cpuMask
	for i, word := range allowed {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	pinned := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		found := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity %d: %v", tid, e)
			}
			pinned[tid], found = true, true
		}
		if !found {
			return nil
		}
	}
}
