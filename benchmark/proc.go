package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the sigserve binary and
// the span files. It is relative to the checkout root the benchmark runs
// from, and .gitignore names it.
const buildDir = ".bench_build"

// buildSigserve compiles cmd/sigserve once per process and returns the
// binary's path.
var buildSigserve = sync.OnceValues(func() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "sigserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/sigserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/sigserve: %v\n%s", err, out)
	}
	return bin, nil
})

// freeAddr asks the kernel for an unused loopback port. The port is released
// before the child binds it; the readiness poll catches the rare loss of that
// race as a start-up failure.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// child is a server subprocess the benchmark started and must stop.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	waited chan struct{} // closed once cmd.Wait returned
	once   sync.Once
}

// live tracks running children so a signal or a panic cannot leak one.
var live = struct {
	sync.Mutex
	set map[*child]struct{}
}{set: map[*child]struct{}{}}

// stopAllChildren stops every running child; main defers it (which also
// covers a panic) and calls it on SIGINT/SIGTERM.
func stopAllChildren() {
	live.Lock()
	cs := make([]*child, 0, len(live.set))
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

const (
	readyTimeout = 10 * time.Second
	stopTimeout  = 10 * time.Second
)

// startChild runs bin with args and extra environment, then polls
// http://addr/healthz until it answers 200 or readyTimeout passes.
func startChild(bin string, args, env []string, addr string) (*child, error) {
	c := &child{addr: addr, waited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Env = append(os.Environ(), env...)
	c.cmd.Stdout = io.Discard
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = childAttr()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	live.Lock()
	live.set[c] = struct{}{}
	live.Unlock()
	go func() {
		_ = c.cmd.Wait() // exit status is irrelevant: stop() decides what a clean end is
		close(c.waited)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.waited:
			c.stop()
			return nil, fmt.Errorf("%s exited during start-up: %s", filepath.Base(bin), c.stderr.String())
		case <-ctx.Done():
			c.stop()
			return nil, fmt.Errorf("%s not ready on %s after %v: %s", filepath.Base(bin), addr, readyTimeout, c.stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the process to end and kills it if it has
// not ended after stopTimeout. It is idempotent and returns only once the
// process is gone.
func (c *child) stop() {
	c.once.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
		select {
		case <-c.waited:
		case <-time.After(stopTimeout):
			_ = c.cmd.Process.Kill()
			<-c.waited
		}
		live.Lock()
		delete(live.set, c)
		live.Unlock()
	})
}

// cpu returns the child's cumulative CPU-seconds.
func (c *child) cpu() (float64, error) { return childCPU(c.cmd.Process.Pid) }
