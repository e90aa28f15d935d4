package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

// The crash harness re-execs this test binary as a predict helper
// process: TestMain notices WEFR_CRASH_HELPER and runs the CLI's run()
// with options passed as JSON, so a crash point armed via
// WEFR_CRASHPOINT kills a real separate process mid-pipeline — the
// closest in-tree approximation of pulling the plug.

func TestMain(m *testing.M) {
	if os.Getenv("WEFR_CRASH_HELPER") == "1" {
		var o options
		if err := json.Unmarshal([]byte(os.Getenv("WEFR_CRASH_OPTS")), &o); err != nil {
			fmt.Fprintf(os.Stderr, "crash helper: bad options: %v\n", err)
			os.Exit(2)
		}
		if err := run(o); err != nil {
			fmt.Fprintf(os.Stderr, "predict: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashBaseOptions is the shared run shape of the crash matrix: small
// enough to run the whole matrix in CI, large enough for every phase
// to have training signal.
func crashBaseOptions() options {
	return options{
		Model: "MC1", Selector: "none", Percent: 0.3,
		Drives: 400, Seed: 3, AFRScale: 5,
		Trees: 5, Depth: 5,
		SnapshotDir: "unused",
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
		case faults.CrashEnv, "WEFR_CRASH_HELPER", "WEFR_CRASH_OPTS":
		default:
			env = append(env, kv)
		}
	}
	env = append(env, "WEFR_CRASH_HELPER=1", "WEFR_CRASH_OPTS="+string(data))
	return append(env, extra...)
}

// runHelper executes one predict subprocess and returns its stdout and
// exit code.
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

// artifactFiles maps every registry file under the journal dir to its
// contents.
func artifactFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	root := filepath.Join(dir, "artifacts")
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
		t.Fatalf("walk artifacts: %v", err)
	}
	return out
}

// TestCrashResume is the process-level crash matrix: for every
// registered crash point (and more than one hit where the pipeline
// passes the site repeatedly), a journaled predict subprocess is
// killed at that point, then resumed without the crash armed. The
// resumed run's stdout must be byte-identical to a clean, unjournaled
// run — and the artifacts it leaves behind byte-identical to an
// uninterrupted journaled run's — at differing worker counts.
func TestCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix is not short")
	}
	sites := faults.CrashSites()
	want := []string{"calibrate", "ingest", "snapshot-save", "train"}
	if fmt.Sprint(sites) != fmt.Sprint(want) {
		t.Fatalf("registered crash sites = %v, want %v", sites, want)
	}

	// The goldens: a clean unjournaled run (stdout) and an
	// uninterrupted journaled run (artifacts).
	clean := crashBaseOptions()
	clean.Workers = 1
	cleanOut, code := runHelper(t, clean)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	refDir := t.TempDir()
	ref := crashBaseOptions()
	ref.Workers = 2
	ref.Journal = refDir
	refOut, code := runHelper(t, ref)
	if code != 0 {
		t.Fatalf("journaled reference run exited %d", code)
	}
	if refOut != cleanOut {
		t.Fatalf("journaled stdout differs from clean run:\n--- clean ---\n%s\n--- journaled ---\n%s", cleanOut, refOut)
	}
	refArtifacts := artifactFiles(t, refDir)
	if len(refArtifacts) == 0 {
		t.Fatal("reference journaled run saved no artifacts")
	}

	for _, site := range sites {
		for _, hit := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s_hit%d", site, hit), func(t *testing.T) {
				dir := t.TempDir()
				crash := crashBaseOptions()
				crash.Workers = 2
				crash.Journal = dir
				_, code := runHelper(t, crash, fmt.Sprintf("%s=%s:%d", faults.CrashEnv, site, hit))
				if code != faults.CrashExitCode {
					t.Fatalf("crash run exited %d, want %d (site not reached?)", code, faults.CrashExitCode)
				}

				resume := crashBaseOptions()
				resume.Workers = 3
				resume.Journal = dir
				resume.Resume = true
				out, code := runHelper(t, resume)
				if code != 0 {
					t.Fatalf("resume exited %d", code)
				}
				if out != cleanOut {
					t.Errorf("resumed stdout differs from clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", cleanOut, out)
				}
				got := artifactFiles(t, dir)
				if len(got) != len(refArtifacts) {
					t.Errorf("artifact set: %d files, reference has %d", len(got), len(refArtifacts))
				}
				for rel, data := range refArtifacts {
					if got[rel] != data {
						t.Errorf("artifact %s differs from uninterrupted run (or is missing)", rel)
					}
				}
			})
		}
	}
}

// TestJournalFlagValidation pins the CLI-level journal errors: -resume
// without -journal, and rerunning an existing journal without -resume.
func TestJournalFlagValidation(t *testing.T) {
	o := crashBaseOptions()
	o.Resume = true
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-journal") {
		t.Errorf("resume without journal: %v", err)
	}
}
