package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestGracefulDrain proves the SIGTERM drain end to end in a real
// subprocess: a request whose body is still arriving when the signal
// lands must complete with a 200 during the drain window, and the
// process must exit 0 after printing the drain banners.
//
// The test re-execs itself (SERVE_DRAIN_CHILD=1) so the child runs
// run() with its own signal handling, exactly as the shipped binary
// does; the parent drives it over a raw TCP connection so it can hold
// the request half-sent across the signal.
func TestGracefulDrain(t *testing.T) {
	if os.Getenv("SERVE_DRAIN_CHILD") == "1" {
		drainChild(t)
		return
	}
	if testing.Short() {
		t.Skip("subprocess drain test skipped in -short")
	}

	dir := t.TempDir()
	cmd, waitLine := startDrainChild(t, dir, true)

	// Bootstrap training runs in the child before it listens; allow for
	// slow -race CI machines.
	addr := listenAddr(waitLine("listening on", 90*time.Second))

	// Hold a fleet-score request in flight: send the headers and half
	// the JSON body, then stop. The handler is now parked reading the
	// body, so the request is active when the signal lands.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"model":"serving","day":89}`
	half := len(body) / 2
	req := fmt.Sprintf("POST /v1/score/fleet HTTP/1.1\r\nHost: drain\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:half])
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	// Give the server time to read the headers and enter the handler —
	// a connection with no active request would be closed, not drained.
	time.Sleep(300 * time.Millisecond)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine("draining", 10*time.Second)

	// The listener is closed and the drain clock is running; finishing
	// the body must still yield a full 200 response.
	if _, err := conn.Write([]byte(body[half:])); err != nil {
		t.Fatalf("write rest of body during drain: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read response during drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight request during drain: HTTP %d; want 200", resp.StatusCode)
	}

	waitLine("drained, exiting", 15*time.Second)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child did not exit 0 after drain: %v", err)
	}
}

// TestRestartReusesRegistry runs the daemon twice on one registry in
// real subprocesses (re-exec'd like TestGracefulDrain's child). The
// first child bootstrap-trains version 1 and serves it over loopback;
// the second starts without -bootstrap and must serve that same
// version, neither failing on the existing registry nor retraining.
func TestRestartReusesRegistry(t *testing.T) {
	if os.Getenv("SERVE_DRAIN_CHILD") == "1" {
		drainChild(t)
		return
	}
	if testing.Short() {
		t.Skip("subprocess restart test skipped in -short")
	}

	dir := t.TempDir()
	for _, bootstrap := range []bool{true, false} {
		cmd, waitLine := startDrainChild(t, dir, bootstrap)
		// Any "bootstrapping" line before "listening on" on the restart
		// means the child retrained.
		ln := waitLine("listening on", 90*time.Second)
		if !bootstrap && strings.Contains(ln, "bootstrapping") {
			t.Fatalf("restart without -bootstrap retrained: %s", ln)
		}
		// A served reply also means the signal handler is installed, so
		// the SIGTERM below drains instead of killing.
		mresp, err := http.Get("http://" + listenAddr(ln) + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		var models []serve.ModelInfo
		err = json.NewDecoder(mresp.Body).Decode(&models)
		mresp.Body.Close()
		if err != nil || len(models) != 1 || models[0].Version != 1 {
			t.Fatalf("child (bootstrap=%t) serves %+v (%v); want serving v1", bootstrap, models, err)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		waitLine("drained, exiting", 15*time.Second)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("child (bootstrap=%t) did not exit 0 after drain: %v", bootstrap, err)
		}
	}
}

// listenAddr extracts the address from the daemon's "listening on"
// banner.
func listenAddr(ln string) string {
	addr := ln[strings.Index(ln, "listening on ")+len("listening on "):]
	if i := strings.Index(addr, ","); i >= 0 {
		addr = addr[:i]
	}
	return addr
}

// startDrainChild re-execs the test binary as a drain child serving
// the registry in dir (the child runs the calling test, which hands
// over to drainChild), and returns it with a waitLine that blocks
// until the child's stderr carries a line containing substr. The
// daemon narrates its lifecycle there ("bootstrapping", "listening
// on", "draining", "drained"). When bootstrap is false, waitLine
// returns early with any "bootstrapping" line it meets so the caller
// can fail on it.
func startDrainChild(t *testing.T, dir string, bootstrap bool) (*exec.Cmd, func(substr string, timeout time.Duration) string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), "SERVE_DRAIN_CHILD=1", "SERVE_DRAIN_DIR="+dir,
		fmt.Sprintf("SERVE_DRAIN_BOOTSTRAP=%t", bootstrap))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(substr string, timeout time.Duration) string {
		t.Helper()
		deadline := time.After(timeout)
		for {
			select {
			case ln, ok := <-lines:
				if !ok {
					t.Fatalf("child stderr closed before %q", substr)
				}
				if strings.Contains(ln, substr) || (!bootstrap && strings.Contains(ln, "bootstrapping")) {
					return ln
				}
			case <-deadline:
				t.Fatalf("child never printed %q", substr)
			}
		}
	}
	return cmd, waitLine
}

// drainChild is the re-exec'd body of the subprocess tests: a tiny
// serve run() on a loopback port (bootstrapping v1 unless
// SERVE_DRAIN_BOOTSTRAP=false), torn down by the parent's SIGTERM. A
// non-nil run error fails the child test, which the parent observes
// as a non-zero exit.
func drainChild(t *testing.T) {
	o := options{
		Dir:             os.Getenv("SERVE_DRAIN_DIR"),
		Artifacts:       "serving",
		Addr:            "127.0.0.1:0",
		Model:           "MC1",
		Drives:          60,
		Days:            90,
		Seed:            1,
		AFRScale:        3,
		Trees:           4,
		Depth:           4,
		Bootstrap:       os.Getenv("SERVE_DRAIN_BOOTSTRAP") != "false",
		DefaultDeadline: 30 * time.Second,
		DrainTimeout:    10 * time.Second,
	}
	if err := run(o); err != nil {
		t.Fatalf("child run: %v", err)
	}
}
