package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one system process the benchmark launched. Its CPU time and
// peak RSS come from the kernel's accounting when it is reaped.
type proc struct {
	name  string
	cmd   *exec.Cmd
	start time.Time
	done  chan struct{}
	err   error
}

// live holds every process not yet reaped, so a failing run can still
// stop them all before it exits.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// startProc launches bin with args. stdout, when non-nil, receives the
// process's standard output through a pipe the caller must drain to
// EOF; standard error goes to logPath.
func startProc(name, bin, logPath string, stdout io.Writer, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	cmd.Stdout = stdout
	// A benchmark killed from outside must not leave the system running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		p.err = cmd.Wait()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	return p, nil
}

// stop signals the process and waits for it to exit, killing it if it
// has not exited within grace. It reports the exit error, if any.
func (p *proc) stop(sig syscall.Signal, grace time.Duration) error {
	_ = p.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-p.done:
		return p.err
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not exit within %v of %v; killed", p.name, grace, sig)
	}
}

// wait blocks until the process exits, killing it after limit.
func (p *proc) wait(limit time.Duration) error {
	select {
	case <-p.done:
		return p.err
	case <-time.After(limit):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s ran past %v; killed", p.name, limit)
	}
}

// cpuSeconds is the reaped process's user+system CPU time.
func (p *proc) cpuSeconds() float64 {
	st := p.cmd.ProcessState
	return (st.UserTime() + st.SystemTime()).Seconds()
}

// peakRSSMB is the reaped process's peak resident set (VmHWM), in MB.
func (p *proc) peakRSSMB() float64 {
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// cpuSoFar is the running process's user+system CPU time so far, read
// from /proc (clock ticks of 10 ms), or 0 once it has exited.
func (p *proc) cpuSoFar() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// killAll stops every process still running and waits for each.
func killAll() {
	live.Lock()
	var ps []*proc
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// logTail returns the last lines of a process log, for error reports.
func logTail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// cpuStat is one reading of the aggregate CPU line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	var st cpuStat
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	for i, f := range fields[1:] {
		if i >= 8 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealFrac is the share of all CPU time stolen by the hypervisor
// between two readings.
func stealFrac(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// machineRecord describes the host a run measured, so a disturbed or
// mismatched run can be told apart.
func machineRecord() []string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// The system's processes run with the default GOMAXPROCS, as this
	// one does.
	return []string{
		"nproc=" + strconv.Itoa(runtime.NumCPU()),
		fmt.Sprintf("cpu=%q", model),
		"gomaxprocs=" + strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"kernel=" + kernel,
	}
}

// waitForFile polls until path exists and is non-empty.
func waitForFile(path string, limit time.Duration) ([]byte, error) {
	deadline := time.Now().Add(limit)
	for {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 && b[len(b)-1] == '\n' {
			return b, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not written within %v", filepath.Base(path), limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
