package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on the runtime's poller, whose timeout is whole milliseconds:
// a sub-millisecond wait overshoots by up to one, which is the whole tick
// of the pacing schedule. nanosleep overshoots by ~0.1 ms.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
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

// setAffinity restricts thread tid (0: the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return errno
	}
	return nil
}

// pinSelf restricts every thread of this process to cpus; threads the
// runtime starts later inherit the mask from the one that starts them.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue // not a thread directory
		}
		if err := setAffinity(tid, cpus); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startOn starts cmd restricted to cpus: a child inherits the affinity of
// the thread that forks it, so the calling goroutine's thread takes the
// child's mask for the duration of the fork and its own (back) afterwards.
func startOn(cmd *exec.Cmd, cpus, back []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, back); err == nil {
		err = rerr
	}
	return err
}
