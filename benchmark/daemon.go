package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one volleyd child process, driven only through what an operator
// has: its flags, its HTTP control plane, its stdout and /proc.
type daemon struct {
	id       string // shard ID; "" in cluster mode
	httpAddr string
	cmd      *exec.Cmd
	started  time.Time
	killed   bool // SIGKILLed on purpose by the failover drill
	stderr   bytes.Buffer
	drained  chan struct{} // closed when stdout reached EOF
	waitOnce sync.Once
	waitErr  error
	exited   atomic.Bool

	mu       sync.Mutex
	lines    int
	badLines int
	alerts   int
	probes   []probeAlert
	cal      []calObs
}

// probeAlert is one alert line of a probe task.
type probeAlert struct {
	task string
	at   time.Time
}

// alertLine is the part of a daemon stdout line the harness reads.
type alertLine struct {
	Time  time.Time `json:"time"`
	Kind  string    `json:"kind"`
	Task  string    `json:"task"`
	Value float64   `json:"value"`
}

// freeAddrs reserves n distinct loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startDaemon execs volleyd in its own process group and starts draining its
// stdout, so an alert storm can never block the tick loop on a full pipe.
func startDaemon(bin string, procs int, args ...string) (*daemon, error) {
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go d.drain(out)
	return d, nil
}

// drain counts every stdout line, requires each to be JSON, and keeps the
// alert lines of probe and calibration tasks with the daemon's own timestamp.
func (d *daemon) drain(r io.Reader) {
	defer close(d.drained)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	probeMark, calMark := []byte(`"task":"`+probePrefix), []byte(`"task":"`+calPrefix)
	for sc.Scan() {
		line := sc.Bytes()
		var a alertLine
		isProbe, isCal := bytes.Contains(line, probeMark), bytes.Contains(line, calMark)
		ok := json.Valid(line)
		if ok && (isProbe || isCal) {
			ok = json.Unmarshal(line, &a) == nil
		}
		d.mu.Lock()
		d.lines++
		switch {
		case !ok:
			d.badLines++
		case isProbe && a.Kind == "alert":
			d.alerts++
			d.probes = append(d.probes, probeAlert{task: a.Task, at: a.Time})
		case isCal && a.Kind == "alert":
			d.alerts++
			d.cal = append(d.cal, calObs{at: a.Time, value: a.Value})
		case bytes.Contains(line, []byte(`"kind":"alert"`)):
			d.alerts++
		}
		d.mu.Unlock()
	}
}

func (d *daemon) url(path string) string { return "http://" + d.httpAddr + path }

// waitReady polls /healthz until the control plane answers.
func (d *daemon) waitReady(ctx context.Context) error {
	for {
		resp, err := http.Get(d.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.drained:
			return fmt.Errorf("daemon exited before ready: %v: %s", d.wait(), d.stderr.String())
		case <-ctx.Done():
			return fmt.Errorf("daemon not ready: %w (last error: %v)", ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// admit POSTs one task and reports whether the daemon answered 201.
func (d *daemon) admit(t taskBody) error {
	body, err := json.Marshal(t)
	if err != nil {
		return err
	}
	resp, err := http.Post(d.url("/tasks"), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10)) // best effort: only quoted in the error below
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("admit %s: status %d: %s", t.Name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// scrapeMetrics fetches and parses /metrics, reporting the page size and how
// long the daemon took to serve it.
func (d *daemon) scrapeMetrics() (s scrape, size int, took time.Duration, err error) {
	t := time.Now()
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	took = time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	s, err = parseProm(bytes.NewReader(page))
	return s, len(page), took, err
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (d *daemon) memstats() (memstats, error) {
	resp, err := http.Get(d.url("/debug/vars"))
	if err != nil {
		return memstats{}, err
	}
	defer resp.Body.Close()
	return parseMemstats(resp.Body)
}

// procStat is what the harness reads from /proc/<pid>/stat.
type procStat struct {
	cpu    float64 // utime+stime, seconds
	sys    float64 // stime alone, seconds
	faults float64 // minflt+majflt
}

func (d *daemon) procStat() (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(b)
}

// clockTick is USER_HZ; Linux fixes it at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// parseProcStat reads fields 10, 12, 14 and 15 (minflt, majflt, utime, stime)
// of a /proc/<pid>/stat line. The command name in field 2 may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(stat []byte) (procStat, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return procStat{}, fmt.Errorf("malformed /proc stat: %q", stat)
	}
	f := strings.Fields(string(stat[i+1:])) // f[0] is field 3
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc stat: %q", stat)
	}
	var v [4]uint64
	var errs []error
	for j, idx := range []int{7, 9, 11, 12} {
		n, err := strconv.ParseUint(f[idx], 10, 64)
		v[j] = n
		errs = append(errs, err)
	}
	if err := errors.Join(errs...); err != nil {
		return procStat{}, fmt.Errorf("/proc stat: %w", err)
	}
	return procStat{cpu: float64(v[2]+v[3]) / clockTick, sys: float64(v[3]) / clockTick, faults: float64(v[0] + v[1])}, nil
}

// rssBytes is VmRSS from /proc/<pid>/status.
func (d *daemon) rssBytes() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusRSS(b)
}

func parseStatusRSS(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseUint(f[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("VmRSS: %w", err)
				}
				return float64(kb) * 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// terminate sends SIGTERM and waits for the daemon and its stdout drain; a
// daemon that ignores it for 5 s is killed. It reports the exit error: a
// clean shutdown exits 0.
func (d *daemon) terminate() error {
	if d.exited.Load() {
		return d.waitErr
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone; wait below reports that
	timer := time.AfterFunc(5*time.Second, d.kill)
	defer timer.Stop()
	return d.wait()
}

// kill SIGKILLs the daemon's whole process group, unless it was already
// reaped (its PID may have been reused since).
func (d *daemon) kill() {
	if !d.exited.Load() {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when already gone
	}
}

// wait reaps the process after its stdout is fully drained. It may be called
// again; later calls return the first result.
func (d *daemon) wait() error {
	d.waitOnce.Do(func() {
		<-d.drained
		d.waitErr = d.cmd.Wait()
		d.exited.Store(true)
	})
	return d.waitErr
}

func (d *daemon) counts() (lines, bad, alerts int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lines, d.badLines, d.alerts
}

func (d *daemon) probeAlerts() ([]probeAlert, []calObs) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]probeAlert(nil), d.probes...), append([]calObs(nil), d.cal...)
}
