package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one drmserver process the benchmark launched.
type server struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
	log  string        // stderr file
}

// fleet owns every process the benchmark starts, so each exit path can
// kill and reap all of them.
type fleet struct {
	bin string
	dir string // per-run directory for stderr files
	mu  sync.Mutex
	all []*server
	n   int
}

// freePort picks a loopback port nothing listens on right now.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches drmserver on port with args, stderr to a file of its
// own. The child dies with the benchmark (Pdeathsig) even if the
// benchmark itself is killed.
func (f *fleet) start(name string, port int, args ...string) (*server, error) {
	f.mu.Lock()
	f.n++
	logPath := filepath.Join(f.dir, fmt.Sprintf("%s.%d.stderr", name, f.n))
	f.mu.Unlock()
	errf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer errf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(f.bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = errf, errf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills its servers
		close(s.done)
	}()
	f.mu.Lock()
	f.all = append(f.all, s)
	f.mu.Unlock()
	return s, nil
}

// kill SIGKILLs the process and waits until it has been reaped.
func (s *server) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // fails only if already exited, which done then reports
	<-s.done
}

func (s *server) alive() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// stderrTail is the end of the server's stderr, for error messages.
func (s *server) stderrTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// killAll kills and reaps every process the fleet started.
func (f *fleet) killAll() {
	f.mu.Lock()
	all := f.all
	f.all = nil
	f.mu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// rss returns the process's peak resident set (VmHWM) in bytes.
func (s *server) rss() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", s.name)
}

// cpu returns the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	i := strings.LastIndexByte(string(b), ')')
	fields := strings.Fields(string(b[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", s.name)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// hostCPU reads the machine-wide CPU tick counters from /proc/stat:
// all ticks, and the ticks the hypervisor stole from this guest.
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after steal are already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// ctl is the benchmark's control-plane client: readiness probes, stats,
// metrics. It stays off the generator's connections.
var ctl = &http.Client{Timeout: 60 * time.Second}

// getJSON fetches path from s and decodes a 200 answer into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := ctl.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", s.name, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// roleInfo is the part of GET /v1/repl/role the benchmark reads.
type roleInfo struct {
	Role  string `json:"role"`
	Ready bool   `json:"ready"`
	Seq   uint64 `json:"seq"`
}

// waitUntil polls ok until it holds, the process exits, or the timeout
// passes. Readiness only counts while the launched process is alive, so
// a stray process answering on the same port cannot stand in for it.
func (s *server) waitUntil(ctx context.Context, timeout time.Duration, what string, ok func() bool) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if !s.alive() {
			return fmt.Errorf("%s exited before %s; stderr:\n%s", s.name, what, s.stderrTail())
		}
		if ok() && s.alive() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not %s after %v; stderr:\n%s", s.name, what, timeout, s.stderrTail())
		case <-s.done:
		case <-tick.C:
		}
	}
}

// ready reports whether GET /v1/readyz answers 200.
func (s *server) ready() bool {
	resp, err := ctl.Get(s.url + "/v1/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// holds reports whether the server's WAL holds at least seq records.
func (s *server) holds(seq uint64) bool {
	var ri roleInfo
	return s.getJSON("/v1/repl/role", &ri) == nil && ri.Ready && ri.Seq >= seq
}
