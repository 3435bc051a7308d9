package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ecsdns/bench/stub"
)

// drainBudget is how long a server gets to exit after SIGTERM before it
// is killed. authdns and recursor drain for up to their own -drain (5 s)
// but with no traffic in flight they exit at once.
const drainBudget = 6 * time.Second

// pinnedEnv marks a harness that has already pinned itself.
const pinnedEnv = "ECSBENCH_PINNED"

// pinToOneCPU confines the harness, and so every process it starts, to
// one CPU: the highest-numbered one it may use. The sandbox has a few
// virtual CPUs of a shared host; spread over them, each query wakes an
// idle CPU two to four times, and that wake-up (an interrupt through
// the hypervisor) costs more than the query and varies from run to run.
// On one CPU a closed loop never idles and the run measures the programs.
// An affinity mask belongs to a thread, so the calling thread narrows
// its own and re-executes the harness, whose threads all inherit it.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}

// reservePort finds a loopback port on which both UDP and TCP bind
// succeed right now, which is what `-listen` needs: the servers bind
// the same number on both.
func reservePort() (int, error) {
	var last error
	for try := 0; try < 32; try++ {
		u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return 0, err
		}
		port := u.LocalAddr().(*net.UDPAddr).Port
		t, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
		u.Close()
		if err != nil {
			last = err
			continue
		}
		t.Close()
		return port, nil
	}
	return 0, fmt.Errorf("no port free on both udp and tcp: %w", last)
}

// child is one process under test.
type child struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
}

// children tracks every live child so that any exit path can reap them.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// spawn starts bin with args. Standard output goes to stdout (nil
// discards it); standard error is kept for the exit lines.
func spawn(name, bin string, stdout io.Writer, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = stdout, &c.stderr
	// If the harness itself is killed the kernel takes the child along.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status is read from ProcessState
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the child has already ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// earlyExit describes a child that ended before it was told to.
func (c *child) earlyExit() error {
	return fmt.Errorf("%s exited early (%v): %s", c.name, c.cmd.ProcessState, tail(c.stderr.String(), 400))
}

// stop ends the child: SIGTERM, then SIGKILL once the drain budget is
// spent. It returns after the process has been reaped.
func (c *child) stop() {
	if !c.exited() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it just exited
		select {
		case <-c.done:
		case <-stub.After(drainBudget):
			_ = c.cmd.Process.Kill()
		}
	}
	<-c.done
}

// wait blocks until the child ends on its own or the limit passes, in
// which case the child is killed.
func (c *child) wait(limit time.Duration) error {
	select {
	case <-c.done:
	case <-stub.After(limit):
		_ = c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("%s still running after %v; killed", c.name, limit)
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("%s: %v: %s", c.name, c.cmd.ProcessState, tail(c.stderr.String(), 400))
	}
	return nil
}

// reapAll kills and reaps whatever is still running. Every exit path of
// the harness goes through it.
func reapAll() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// startServer reserves a port, starts a server on it with
// `-listen <addr>` plus args, and waits until it answers a real
// query. reservePort has to release the port before the child binds it,
// so a child that loses that race to another process exits early and
// the whole step is retried on a fresh port. It returns how many
// readiness probes were answered (always 1) and how many were sent to a
// bound socket but lost, so the caller can account for what the probes
// caused upstream.
func startServer(name, bin string, scope uint8, args ...string) (c *child, addr string, answered, lost int, err error) {
	for try := 0; try < 3; try++ {
		var port int
		if port, err = reservePort(); err != nil {
			return nil, "", 0, 0, err
		}
		addr = fmt.Sprintf("127.0.0.1:%d", port)
		if c, err = spawn(name, bin, nil, append([]string{"-listen", addr}, args...)...); err != nil {
			return nil, "", 0, 0, err
		}
		if answered, lost, err = waitReady(addr, c, scope); err == nil {
			return c, addr, answered, lost, nil
		}
		early := c.exited()
		c.stop()
		if !early {
			break
		}
	}
	return nil, "", 0, 0, err
}

// waitReady sends real queries to addr until one is answered correctly.
func waitReady(addr string, c *child, scope uint8) (answered, lost int, err error) {
	deadline := stub.Now().Add(10 * time.Second)
	for n := 0; stub.Now().Before(deadline); n++ {
		if c.exited() {
			return answered, lost, c.earlyExit()
		}
		cl, err := stub.Dial(addr)
		if err != nil {
			return answered, lost, err
		}
		_, err = cl.Exchange(stub.Item{Name: fmt.Sprintf("ready-%s-%d.%s", c.name, n, stub.Zone), Subnet: [3]byte{20, 255, 255}}, scope)
		cl.Close()
		switch {
		case err == nil:
			return answered + 1, lost, nil
		case errors.Is(err, syscall.ECONNREFUSED):
			stub.Sleep(2 * time.Millisecond) // not bound yet
		case errors.Is(err, stub.ErrTimeout):
			lost++
		default:
			return answered, lost, fmt.Errorf("readiness probe to %s: %w", c.name, err)
		}
	}
	return answered, lost, fmt.Errorf("%s not ready after 10s", c.name)
}

// startRef starts the reference responder, which is this same program
// with -ref, and waits until it echoes.
func startRef() (*child, *stub.RefClient, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for try := 0; try < 3; try++ {
		var port int
		if port, err = reservePort(); err != nil {
			return nil, nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		var c *child
		if c, err = spawn("reference", exe, nil, "-ref", addr); err != nil {
			return nil, nil, err
		}
		var rc *stub.RefClient
		if rc, err = stub.DialRef(addr); err != nil {
			c.stop()
			return nil, nil, err
		}
		for deadline := stub.Now().Add(10 * time.Second); stub.Now().Before(deadline) && !c.exited(); {
			if _, err = rc.Rate(0); err == nil {
				return c, rc, nil
			}
			if !errors.Is(err, syscall.ECONNREFUSED) {
				break
			}
			stub.Sleep(2 * time.Millisecond) // not bound yet
		}
		rc.Close()
		early := c.exited()
		c.stop()
		if !early {
			break
		}
	}
	return nil, nil, fmt.Errorf("reference responder not ready: %w", err)
}

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTick is the kernel's USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux platform Go supports.
const clockTick = 100

// parseStatCPU extracts user+system CPU time from the text of
// /proc/<pid>/stat. The command name may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: utime/stime not numeric")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseStatusHWM extracts VmHWM, the peak resident set, in MiB from the
// text of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: odd VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// procCPU reads a live process's CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procHWM reads a live process's peak resident set in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

func procPath(pid int, file string) string {
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		s = "..." + s[len(s)-n:]
	}
	return s
}
