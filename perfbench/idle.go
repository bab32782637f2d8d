package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// schedIdle is SCHED_IDLE from linux/sched.h.
const schedIdle = 5

// startIdleFiller starts the idle filler and returns its stop function,
// which closes the child's input and waits for it to exit; calling it again
// does nothing. When the child cannot start, the benchmark runs without it
// and says so.
//
// A virtual machine whose CPUs halt when idle pays the hypervisor's
// scheduling latency on every wake-up, and that latency, which depends on
// the host's other tenants, dominated the run-to-run spread of latency at
// partial load. The filler keeps every CPU busy with a child process of
// SCHED_IDLE spinners: the guest kernel preempts them the moment any other
// thread becomes runnable, so they only fill time the program leaves idle,
// and wake-ups become in-guest context switches. It runs through set-up and
// the fixed-rate phases, where the CPUs are partly idle, and is stopped
// before a ladder and for tuning: near saturation the spinners' own cost
// (context switches, and the host core they share) would only lower what
// is measured.
func startIdleFiller() func() {
	cmd := exec.Command(os.Args[0], "--idle-filler")
	in, err := cmd.StdinPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		os.Stderr.WriteString("perfbench: idle filler not started: " + err.Error() + "\n")
		return func() {}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			_ = in.Close()
			_ = cmd.Wait()
		})
	}
}

// runIdleFiller is the child: one SCHED_IDLE spinning thread per CPU until
// standard input closes — the benchmark closed it or exited — or the run
// deadline passes.
func runIdleFiller() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			runtime.LockOSThread()
			param := struct{ priority int32 }{0}
			// Scheduling policy is per thread on Linux: pid 0 is this thread.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				return // never spin at normal priority
			}
			for {
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
	}
}
