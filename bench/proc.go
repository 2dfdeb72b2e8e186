package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemons compiles kgvoted and kgrouter from the tree at root into dir.
// With a warm build cache this only checks that the binaries are current,
// which is the cost every later set-up pays.
func buildDaemons(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/kgvoted", "./cmd/kgrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// freePort asks the kernel for an unused loopback port. Another process can
// take it before the daemon binds, in which case the daemon exits and boot
// reports its stderr.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail keeps the last bytes a daemon wrote to stderr, to print on failure.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one kgvoted or kgrouter child process.
type daemon struct {
	name string
	bin  string
	args []string
	addr string
	cmd  *exec.Cmd
	log  tail
	done chan struct{}
}

// fleet owns every child of a run, so that one call stops them all on exit,
// on error and on SIGINT.
type fleet struct {
	mu      sync.Mutex
	daemons []*daemon
}

// spawn starts bin with "-addr <loopback:free port>" followed by args.
func (f *fleet) spawn(name, bin string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	return f.spawnAt(name, bin, "127.0.0.1:"+strconv.Itoa(port), args...)
}

// spawnAt starts bin with "-addr addr" followed by args, in its own process
// group.
func (f *fleet) spawnAt(name, bin, addr string, args ...string) (*daemon, error) {
	d := &daemon{name: name, bin: bin, addr: addr}
	d.args = append([]string{"-addr", d.addr}, args...)
	if err := d.start(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	return d, nil
}

func (d *daemon) start() error {
	d.cmd = exec.Command(d.bin, d.args...)
	d.cmd.Stderr = &d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	d.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(done)
	}(d.cmd, d.done)
	return nil
}

// commandLine is the exact line that started the daemon, for the run record.
func (d *daemon) commandLine() string {
	return filepath.Base(d.bin) + " " + strings.Join(d.args, " ")
}

// kill sends SIGKILL to the daemon's process group and waits for it to end.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when it already exited
	<-d.done
}

// healthPoll is how often readiness is polled; recovery_s is timed with it,
// so it is the resolution of that metric.
const healthPoll = 250 * time.Microsecond

// awaitHealthy polls /v1/healthz until it answers 200, the daemon exits, or
// the deadline passes.
func (d *daemon) awaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during boot:\n%s", d.name, d.log.String())
		default:
		}
		if c, err := dial(d.addr); err == nil {
			status, _, err := c.do("GET", "/v1/healthz", "", nil)
			c.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s:\n%s", d.name, timeout, d.log.String())
		}
		nanosleep(healthPoll)
	}
}

// killAll stops every daemon the fleet started.
func (f *fleet) killAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.daemons {
		d.kill()
	}
	f.daemons = nil
}

// stderrTails renders what each live daemon last logged.
func (f *fleet) stderrTails() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b bytes.Buffer
	for _, d := range f.daemons {
		fmt.Fprintf(&b, "--- %s stderr (last %d bytes) ---\n%s\n", d.commandLine(), tailBytes, d.log.String())
	}
	return b.String()
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU fields in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() float64 {
	return procCPUSeconds(d.cmd.Process.Pid)
}

func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name is parenthesised and may contain spaces; fields
	// are counted from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTicks
}

// rssPeakMB is the daemon's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
