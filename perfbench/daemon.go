package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cmd/serve process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration // exec to the first /readyz 200
	procs  int           // GOMAXPROCS the daemon was started with
	stderr *addrWriter
	exited chan struct{}
}

// live holds the running daemons, so that a signal to the benchmark
// stops them before it exits.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: make(map[*daemon]bool)}

// stopAll stops every running daemon.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// addrWriter collects the daemon's stderr and reports the address it
// prints once it listens.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "listening on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, ", \n"); j > 0 {
				w.sent = true
				w.addr <- rest[:j]
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.buf.String()
	if len(s) > 4000 {
		s = "..." + s[len(s)-4000:]
	}
	return s
}

// startDaemon execs bin with args on a loopback port chosen by the
// daemon and returns once /readyz answers 200.
func startDaemon(bin string, procs int, args ...string) (*daemon, error) {
	d := &daemon{
		stderr: &addrWriter{addr: make(chan string, 1)},
		exited: make(chan struct{}),
		procs:  procs,
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	d.cmd.Stderr = d.stderr
	// Should the benchmark die without stopping it, the daemon dies too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	live.Lock()
	live.set[d] = true
	live.Unlock()
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through stderr
		close(d.exited)
	}()
	var addr string
	select {
	case addr = <-d.stderr.addr:
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited during boot:\n%s", d.stderr)
	case <-time.After(150 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not listen within 150s:\n%s", d.stderr)
	}
	d.base = "http://" + addr
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		if time.Since(start) > 150*time.Second {
			d.stop()
			return nil, errors.New("daemon never became ready")
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited before ready:\n%s", d.stderr)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs,
// and waits for the process to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}
