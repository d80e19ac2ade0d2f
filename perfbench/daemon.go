package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"genalg/internal/wire"
)

// daemonArgs are the genalgd flags every workload shares; the pool size
// is the workload's own. withObs adds the observability HTTP server.
func daemonArgs(dataDir string, poolPages int, withObs bool) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-pool-pages", strconv.Itoa(poolPages),
		"-group-window", groupWindowFlag(),
		"-checkpoint-bytes", strconv.Itoa(checkpointBytes),
	}
	if withObs {
		args = append(args, "-obs-addr", "127.0.0.1:0")
	}
	return args
}

// groupWindowFlag renders groupWindow for -group-window in ASCII.
func groupWindowFlag() string { return fmt.Sprintf("%dus", groupWindow.Microseconds()) }

// daemon is a genalgd child process.
type daemon struct {
	cmd     *exec.Cmd
	Addr    string
	ObsURL  string // base URL of the observability server, if started
	DataDir string
	done    chan struct{} // closed once the process has been reaped
	logDone chan struct{} // closed once its stderr is drained
}

// startDaemon launches bin on dataDir and returns once it is listening.
// Its log goes to logPath.
func startDaemon(bin, dataDir, logPath string, poolPages int, withObs bool) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, daemonArgs(dataDir, poolPages, withObs)...)
	// The kernel kills the daemon if perfbench dies without reaping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, DataDir: dataDir, done: make(chan struct{}), logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "observability on "); i >= 0 {
				d.ObsURL = strings.TrimSpace(line[i+len("observability on "):])
			}
			if i := strings.Index(line, "serving on "); i >= 0 && !sent {
				addrc <- strings.TrimSpace(line[i+len("serving on "):])
				sent = true
			}
		}
	}()
	go func() {
		<-d.logDone
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.Addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("genalgd exited before listening; see %s", logPath)
	case <-time.After(60 * time.Second):
		d.Kill()
		return nil, fmt.Errorf("genalgd did not start listening within 60s; see %s", logPath)
	}
}

// Dial opens a wire session to the daemon.
func (d *daemon) Dial() (*wire.Client, error) {
	return wire.Dial(d.Addr, 10*time.Second)
}

// counters fetches the daemon's counters from its /metrics.json.
func (d *daemon) counters() (map[string]int64, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(d.ObsURL + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics.json: %w", d.ObsURL, err)
	}
	return doc.Counters, nil
}

// Kill sends SIGKILL and waits until the process is reaped.
func (d *daemon) Kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// Pid is the daemon's process id.
func (d *daemon) Pid() int { return d.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds returns the process's user+system CPU time so far, summed
// over all its threads.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ") ".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// walSize is the size of the durable log in dataDir (0 if absent).
func walSize(dataDir string) int64 {
	fi, err := os.Stat(filepath.Join(dataDir, "wal.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// fsType names the filesystem holding path, from /proc/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
