package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
)

// The crash harness re-execs this test binary as a controller helper
// process: TestMain notices WEFR_CRASH_HELPER and runs the CLI's run()
// with options passed as JSON, so a crash point armed via
// WEFR_CRASHPOINT kills a real separate process mid-decision — the
// closest in-tree approximation of pulling the plug on a long-running
// controller.

func TestMain(m *testing.M) {
	if os.Getenv("WEFR_CRASH_HELPER") == "1" {
		var o options
		if err := json.Unmarshal([]byte(os.Getenv("WEFR_CRASH_OPTS")), &o); err != nil {
			fmt.Fprintf(os.Stderr, "crash helper: bad options: %v\n", err)
			os.Exit(2)
		}
		if err := run(o); err != nil {
			fmt.Fprintf(os.Stderr, "controller: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// scenarioOptions is the MC2 firmware-bug acceptance scenario: an
// MC2-only fleet whose firmware-failure episode spans days 30..299.
// The bootstrap snapshot trains through day 254 (inside the episode);
// the drift window [255, 314] straddles the episode's end at day 300,
// so the detector fires exactly once — at day 314, the first day the
// minimum window fills — and the post-cycle summary reset leaves too
// few remaining days for a second firing.
func scenarioOptions(dir string) options {
	return options{
		Model: "MC2", Selector: "wefr", Only: true,
		Drives: 450, Days: 330, Seed: 1, AFRScale: 6,
		Trees: 5, Depth: 6,
		Dir: dir, Start: 255, End: 320,
		Canary: 21, Window: 60,
	}
}

// helperEnv builds a subprocess environment with every harness
// variable scrubbed, so only the explicitly passed ones apply.
func helperEnv(o options, extra ...string) []string {
	data, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	var env []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		switch name {
		case faults.CrashEnv, faults.DegradeEnv, "WEFR_CRASH_HELPER", "WEFR_CRASH_OPTS":
		default:
			env = append(env, kv)
		}
	}
	env = append(env, "WEFR_CRASH_HELPER=1", "WEFR_CRASH_OPTS="+string(data))
	return append(env, extra...)
}

// runHelper executes one controller subprocess and returns its stdout
// and exit code.
func runHelper(t *testing.T, o options, extra ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = helperEnv(o, extra...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("helper process: %v", err)
		}
		code = ee.ExitCode()
	}
	t.Logf("helper exit %d; stderr:\n%s", code, stderr.String())
	return stdout.String(), code
}

// registryFiles maps every artifact file under the state directory's
// registry to its contents.
func registryFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	root := filepath.Join(dir, "registry")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("walk registry: %v", err)
	}
	return out
}

// cleanRun runs the scenario once, uninterrupted, and caches its
// stdout and registry contents as the baseline every crash/resume
// combination must reproduce byte-for-byte.
var cleanRun struct {
	once     sync.Once
	stdout   string
	registry map[string]string
}

func cleanBaseline(t *testing.T) (string, map[string]string) {
	t.Helper()
	cleanRun.once.Do(func() {
		dir, err := os.MkdirTemp("", "ctl-clean-*")
		if err != nil {
			t.Fatalf("baseline dir: %v", err)
		}
		// The baseline must outlive the first test that builds it;
		// clean it when the process exits, not per-test.
		stdout, code := runHelper(t, scenarioOptions(dir))
		if code != 0 {
			os.RemoveAll(dir)
			t.Fatalf("clean scenario run exited %d", code)
		}
		cleanRun.stdout = stdout
		cleanRun.registry = registryFiles(t, dir)
		os.RemoveAll(dir)
	})
	if cleanRun.stdout == "" {
		t.Fatal("clean baseline unavailable (earlier failure)")
	}
	return cleanRun.stdout, cleanRun.registry
}

// TestControllerSites pins the fault-site registry of the controller
// binary: the engine's stage sites plus the controller's four decision
// boundaries, and the candidate degrade point.
func TestControllerSites(t *testing.T) {
	wantCrash := []string{
		"calibrate", "ctrl-canary-eval", "ctrl-candidate-train",
		"ctrl-drift-eval", "ctrl-promote", "ingest", "snapshot-save", "train",
	}
	if got := faults.CrashSites(); !reflect.DeepEqual(got, wantCrash) {
		t.Errorf("crash sites = %v, want %v", got, wantCrash)
	}
	wantDegrade := []string{"ctrl-candidate"}
	if got := faults.DegradeSites(); !reflect.DeepEqual(got, wantDegrade) {
		t.Errorf("degrade sites = %v, want %v", got, wantDegrade)
	}
}

// TestFirmwareEpisodePromotion is the acceptance scenario's happy
// path: the controller detects the firmware episode's regime change,
// refreshes exactly once, and promotes a candidate that beats the
// stale serving snapshot on the canary window.
func TestFirmwareEpisodePromotion(t *testing.T) {
	stdout, _ := cleanBaseline(t)
	for _, want := range []string{
		"serving v1 (bootstrap, trained through day 254)",
		"drift fired",
		"candidate v2",
		"canary verdict: promote",
		"promoted v2 to serving",
		"final: serving v2, 1 refresh(es): 1 promoted, 0 rolled back, 0 kept",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	_, registry := cleanBaseline(t)
	for _, want := range []string{
		filepath.Join("serving", "v0001.json"),
		filepath.Join("serving", "v0002.json"),
	} {
		if _, ok := registry[want]; !ok {
			t.Errorf("registry missing %s (have %d files)", want, len(registry))
		}
	}
}

// TestDegradedCandidateRollback injects a degenerate candidate (alarm
// thresholds zeroed via the ctrl-candidate degrade point): it must
// lose the canary, and the controller must roll back to the prior
// registry version — which the never-overwrite registry still holds.
func TestDegradedCandidateRollback(t *testing.T) {
	dir := t.TempDir()
	stdout, code := runHelper(t, scenarioOptions(dir), faults.DegradeEnv+"=ctrl-candidate")
	if code != 0 {
		t.Fatalf("degraded run exited %d", code)
	}
	for _, want := range []string{
		"canary verdict: rollback",
		"rolled back to v1 (candidate v2 stays in registry)",
		"final: serving v1, 1 refresh(es): 0 promoted, 1 rolled back, 0 kept",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	registry := registryFiles(t, dir)
	for _, want := range []string{
		filepath.Join("serving", "v0001.json"),
		filepath.Join("serving", "v0002.json"),
	} {
		if _, ok := registry[want]; !ok {
			t.Errorf("registry missing %s after rollback", want)
		}
	}
}

// TestControllerCrashResume is the process-level crash matrix: the
// scenario is killed at every registered control crash site (plus the
// engine stage sites its bootstrap and candidate training pass
// through), resumed, and required to produce stdout and registry
// artifacts byte-identical to the uninterrupted run.
func TestControllerCrashResume(t *testing.T) {
	wantStdout, wantRegistry := cleanBaseline(t)
	sites := []struct {
		site string
		hit  int
	}{
		{"ingest", 1},               // bootstrap PreparePhase
		{"ingest", 2},               // candidate PreparePhase
		{"train", 1},                // bootstrap model fit
		{"train", 2},                // candidate model fit
		{"calibrate", 1},            // bootstrap threshold calibration
		{"ctrl-drift-eval", 1},      // after the (journaled) drift firing
		{"ctrl-candidate-train", 1}, // after candidate save, before its record
		{"ctrl-canary-eval", 1},     // after the verdict record
		{"ctrl-promote", 1},         // after the promotion record
	}
	for _, tc := range sites {
		name := fmt.Sprintf("%s-hit%d", tc.site, tc.hit)
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			o := scenarioOptions(dir)
			_, code := runHelper(t, o, fmt.Sprintf("%s=%s:%d", faults.CrashEnv, tc.site, tc.hit))
			if code != faults.CrashExitCode {
				t.Fatalf("crashed run exited %d, want %d (site not reached?)", code, faults.CrashExitCode)
			}
			o.Resume = true
			stdout, code := runHelper(t, o)
			if code != 0 {
				t.Fatalf("resumed run exited %d", code)
			}
			if stdout != wantStdout {
				t.Errorf("resumed stdout differs from clean run:\n--- resumed\n%s--- clean\n%s", stdout, wantStdout)
			}
			if got := registryFiles(t, dir); !reflect.DeepEqual(got, wantRegistry) {
				t.Errorf("resumed registry differs from clean run: %d files vs %d", len(got), len(wantRegistry))
			}
		})
	}
}

// TestDegradedCrashResume kills the degraded-candidate run right after
// the rollback record and resumes with the degrade point still armed:
// the rollback decision must survive the crash bit-identically.
func TestDegradedCrashResume(t *testing.T) {
	degrade := faults.DegradeEnv + "=ctrl-candidate"

	wantDir := t.TempDir()
	wantStdout, code := runHelper(t, scenarioOptions(wantDir), degrade)
	if code != 0 {
		t.Fatalf("degraded clean run exited %d", code)
	}
	wantRegistry := registryFiles(t, wantDir)

	dir := t.TempDir()
	o := scenarioOptions(dir)
	_, code = runHelper(t, o, degrade, faults.CrashEnv+"=ctrl-promote:1")
	if code != faults.CrashExitCode {
		t.Fatalf("crashed degraded run exited %d, want %d", code, faults.CrashExitCode)
	}
	o.Resume = true
	stdout, code := runHelper(t, o, degrade)
	if code != 0 {
		t.Fatalf("resumed degraded run exited %d", code)
	}
	if stdout != wantStdout {
		t.Errorf("resumed degraded stdout differs:\n--- resumed\n%s--- clean\n%s", stdout, wantStdout)
	}
	if got := registryFiles(t, dir); !reflect.DeepEqual(got, wantRegistry) {
		t.Errorf("resumed degraded registry differs: %d files vs %d", len(got), len(wantRegistry))
	}
}
