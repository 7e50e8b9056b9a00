package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// proc is one running trieserve process.
type proc struct {
	cmd     *exec.Cmd
	addr    string // wire protocol
	metrics string // /snapshot
	exited  chan error
}

// startServer spawns bin on ephemeral loopback ports and waits until it
// prints its metrics address, the last line before it serves.
func startServer(bin string, s *spec, dataDir string) (*proc, error) {
	args := []string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-u", strconv.FormatInt(s.u, 10)}
	if s.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(s.shards))
	}
	if s.durable {
		args = append(args, "-data", dataDir, "-fsync", strconv.Itoa(syncEvery))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// If the benchmark itself is killed, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start trieserve: %w", err)
	}
	p := &proc{cmd: cmd, exited: make(chan error, 1)}
	lines := make(chan string, 16) // a handful of start-up lines; drained below
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // past start-up nobody listens; keep draining the pipe
			}
		}
		close(lines)
		p.exited <- cmd.Wait()
	}()
	deadline := time.After(60 * time.Second)
	for p.metrics == "" {
		select {
		case l, ok := <-lines:
			if !ok {
				return nil, fmt.Errorf("trieserve exited during start-up: %v", <-p.exited)
			}
			switch {
			case strings.HasPrefix(l, "trieserve: serving"):
				p.addr = l[strings.LastIndex(l, " ")+1:]
			case strings.HasPrefix(l, "trieserve: metrics on http://"):
				rest := strings.TrimPrefix(l, "trieserve: metrics on http://")
				p.metrics = rest[:strings.Index(rest, "/")]
			}
		case <-deadline:
			p.kill()
			return nil, fmt.Errorf("trieserve not ready after 60s")
		}
	}
	return p, nil
}

// stop sends SIGTERM (a graceful drain) and waits for the exit.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("trieserve drain: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("trieserve did not drain within 60s")
	}
}

// kill ends the process at once and waits for it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.exited
}

func (p *proc) snapshot() (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := http.Get("http://" + p.metrics + "/snapshot")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decode /snapshot: %w", err)
	}
	return s, nil
}

// cpuSeconds reads the process's utime+stime from /proc/<pid>/stat.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return float64(ut+st) / 100, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (p *proc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid `who`
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
