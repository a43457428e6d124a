package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// server is one pynamic-serve process (or the traced equivalent) with
// its own cache directory.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin with args and -addr, logging to logPath,
// and returns once /healthz answers. The port is picked before the
// server binds it, so another process may take it first; a server that
// exits before it is healthy is retried on a new port.
func startServer(bin string, args []string, logPath string, hc *http.Client) (*server, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		if s, err = startOnce(bin, args, logPath, hc); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func startOnce(bin string, args []string, logPath string, hc *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	// The server must not outlive the harness, even if the harness is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	// Copy the server's output to its log, and signal its first line:
	// the server prints once its set-up is done, so readiness is polled
	// closely only from then on, and the wait is not rounded up to a
	// sleep tick.
	printed := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(out)
		for n := 0; sc.Scan(); n++ {
			fmt.Fprintln(logf, sc.Text())
			if n == 0 {
				close(printed)
			}
		}
		err := cmd.Wait()
		logf.Close()
		s.done <- err
	}()
	deadline := time.Now().Add(20 * time.Second)
	gap := 2 * time.Millisecond
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("%s not healthy after 20s (see %s)", bin, logPath)
		}
		t := time.NewTimer(gap)
		select {
		case <-printed:
			printed, gap = nil, 50*time.Microsecond
		case <-t.C:
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("%s exited before it was healthy: %v (see %s)", bin, err, logPath)
		}
		t.Stop()
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return s.kill()
	}
	select {
	case err := <-s.done:
		s.done <- err
		return err
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("server did not drain within 30s")
	}
}

// kill stops the server outright and waits for it.
func (s *server) kill() error {
	_ = s.cmd.Process.Kill()
	err := <-s.done
	s.done <- err
	return err
}

// cpuSeconds is the server's CPU time so far: the sum of every
// thread's run time from /proc/<pid>/task/*/schedstat, which counts in
// nanoseconds where /proc/<pid>/stat counts in 10 ms ticks. Go's
// runtime keeps its threads for the life of the process, so the sum
// does not lose exited threads' time.
func (s *server) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse schedstat: %w", err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status, in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// metrics reads the flat /v1/metrics counter map.
func (s *server) metrics(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	var m map[string]float64
	err := getJSON(ctx, hc, s.base+"/v1/metrics", &m)
	return m, err
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Read to EOF so the keep-alive connection is reused.
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, v)
}

var errNotFound = errors.New("HTTP 404")

// getBytes fetches url and returns the body of a 200 reply.
func getBytes(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("GET %s: %w", url, errNotFound)
	}
	return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
}
