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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module earlyrelease.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module earlyrelease\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "sweepd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no earlyrelease repository (go.mod plus cmd/sweepd) above the working directory")
		}
		dir = parent
	}
}

// buildSweepd compiles the service from the repository's source.
func buildSweepd(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/sweepd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build sweepd: %w", err)
	}
	return nil
}

// proc is one child process. done closes once it has exited.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{}
}

func (b *bench) spawn(logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(b.ctx, b.sweepd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// An interrupted run asks children to shut down cleanly first.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	// A harness that dies without cleaning up (SIGKILL, or SIGPIPE on a
	// closed standard output) takes its children with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start sweepd: %w", err)
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		// The exit status is not needed: callers watch exited() and stop
		// children with SIGTERM, which never exits 0.
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to exit and waits until it has, killing it if
// it ignores SIGTERM for five seconds.
func (p *proc) stop() {
	if p == nil || p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// tail returns the last lines of the process's output, for errors.
func (p *proc) tail() string {
	data, _ := os.ReadFile(p.log)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// hwmMB reads the process's peak resident set size (VmHWM) in MB.
func (p *proc) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// service is one durable coordinator plus one worker process.
type service struct {
	url           string
	coord, worker *proc
	setup         time.Duration // coordinator launch to worker registered
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startService launches a coordinator with no embedded workers on a
// free port and a fresh state directory, waits for /healthz, checks
// that the answering server is this child with an empty job list, then
// joins one worker process and waits until it is registered.
func (b *bench) startService() (*service, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	b.services++
	dir := filepath.Join(b.tmp, fmt.Sprintf("svc-%d", b.services))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &service{url: fmt.Sprintf("http://127.0.0.1:%d", port)}
	b.live[s] = true
	start := time.Now()
	s.coord, err = b.spawn(filepath.Join(dir, "coord.log"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-local-workers", "0",
		"-state", filepath.Join(dir, "state"), "-log-requests=false")
	if err != nil {
		b.stopService(s)
		return nil, err
	}
	if err := b.waitFor(s, s.coord, "/healthz", func([]byte) bool { return true }); err != nil {
		b.stopService(s)
		return nil, err
	}
	// A stale server on the same port answers /healthz as well: make
	// sure ours is alive and starts with no jobs.
	var jobs []json.RawMessage
	if err := b.getJSON(s.url+"/sweeps", &jobs); err != nil || len(jobs) != 0 || s.coord.exited() {
		b.stopService(s)
		return nil, fmt.Errorf("coordinator on port %d is not a fresh child (jobs %d, err %v)", port, len(jobs), err)
	}
	s.worker, err = b.spawn(filepath.Join(dir, "worker.log"), "-role", "worker", "-join", s.url,
		"-parallel", strconv.Itoa(b.nproc), "-name", "bench-worker")
	if err != nil {
		b.stopService(s)
		return nil, err
	}
	registered := func(body []byte) bool {
		var ws []json.RawMessage
		return json.Unmarshal(body, &ws) == nil && len(ws) > 0
	}
	if err := b.waitFor(s, s.worker, "/workers", registered); err != nil {
		b.stopService(s)
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// waitFor polls path every millisecond until ok accepts the body,
// failing as soon as the process p has exited.
func (b *bench) waitFor(s *service, p *proc, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("sweepd exited while waiting for %s:\n%s", path, p.tail())
		}
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if body, status, err := b.get(s.url + path); err == nil && status == http.StatusOK && ok(body) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("sweepd did not answer %s within 30s:\n%s", path, p.tail())
}

// stopService stops the worker, then the coordinator, and waits for
// both to exit.
func (b *bench) stopService(s *service) {
	s.worker.stop()
	s.coord.stop()
	delete(b.live, s)
	b.hc.CloseIdleConnections()
}

// rss reads the coordinator's and the worker's peak RSS.
func (s *service) rss() (coord, worker float64, err error) {
	if coord, err = s.coord.hwmMB(); err != nil {
		return 0, 0, err
	}
	worker, err = s.worker.hwmMB()
	return coord, worker, err
}

// get performs one GET and returns the body and status.
func (b *bench) get(url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (b *bench) getJSON(url string, v any) error {
	body, status, err := b.get(url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, status)
	}
	return json.Unmarshal(body, v)
}

// post sends a JSON body and returns the response body and status.
func (b *bench) post(url string, v any) ([]byte, int, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(b.ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// scrape reads sweepd's /metrics into sample name (with labels) →
// value.
func (b *bench) scrape(s *service) (map[string]float64, error) {
	body, status, err := b.get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
