package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything fn printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", runErr, out)
	}
	return out
}

// tableRow finds the table line starting with the given label and
// returns its metric columns (everything after the label cell).
func tableRow(t *testing.T, out, label string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), label) {
			fields := strings.Fields(strings.TrimSpace(line))
			// Drop the label's own words ("phase 3" is two fields,
			// "[600," "629]" is two fields).
			return fields[len(fields)-9:]
		}
	}
	t.Fatalf("no table row %q in output:\n%s", label, out)
	return nil
}

// TestSnapshotSaveLoadCLI runs the CLI end to end: train with
// -snapshot save, then score with -snapshot load, and require the
// loaded model's held-out-window metrics to match the training run's
// last phase exactly (the load path retrains nothing, so every
// column — features, threshold, TP/FP/FN, P/R/F0.5, AUC — must agree).
func TestSnapshotSaveLoadCLI(t *testing.T) {
	dir := t.TempDir()
	base := options{
		Model: "MC1", Selector: "none", Percent: 0.3,
		Drives: 400, Seed: 3, AFRScale: 5,
		Trees: 10, Depth: 6,
		SnapshotDir: dir,
	}

	save := base
	save.Snapshot = "save"
	saveOut := captureStdout(t, func() error { return run(save) })
	if !strings.Contains(saveOut, "Saved model snapshot MC1-none v1") {
		t.Fatalf("save output missing confirmation:\n%s", saveOut)
	}
	if _, err := os.Stat(filepath.Join(dir, "MC1-none", "v0001.json")); err != nil {
		t.Fatalf("snapshot artifact not on disk: %v", err)
	}

	load := base
	load.Snapshot = "load"
	loadOut := captureStdout(t, func() error { return run(load) })
	if !strings.Contains(loadOut, "without retraining") {
		t.Fatalf("load output:\n%s", loadOut)
	}

	trained := tableRow(t, saveOut, "phase 3")
	scored := tableRow(t, loadOut, "[")
	for i := range trained {
		if trained[i] != scored[i] {
			t.Errorf("column %d: trained %q != snapshot-scored %q\ntrain row: %v\nload row:  %v",
				i, trained[i], scored[i], trained, scored)
		}
	}

	// A second save bumps the version instead of overwriting.
	saveOut = captureStdout(t, func() error { return run(save) })
	if !strings.Contains(saveOut, "Saved model snapshot MC1-none v2") {
		t.Fatalf("second save output:\n%s", saveOut)
	}
}

// format1Snapshot is a model artifact in the retired format 1 (gob
// model payload), which this build must refuse with a retrain hint.
const format1Snapshot = `{"format": 1, "model": 3, "selector": "none",` +
	` "groups": [{"features": ["MWI_N"], "predictor": 1, "model_data": "AAEC"}],` +
	` "thresholds": [0.5], "trained_through": 600, "config_hash": "abcd"}`

// TestRunRejectsBadSnapshotMode audits the snapshot failure paths: an
// unknown mode, and loading an artifact of an older format. main turns
// each error into a nonzero exit with the message on stderr.
func TestRunRejectsBadSnapshotMode(t *testing.T) {
	cases := []struct {
		name    string
		o       options
		setup   func(dir string) error
		wantSub string
	}{
		{"unknown mode", options{Model: "MC1", Snapshot: "bogus"}, nil, "snapshot mode"},
		{"format-1 artifact", options{Model: "MC1", Selector: "none", Snapshot: "load"},
			func(dir string) error {
				_, err := (&core.Registry{Dir: dir}).Save("MC1-none", []byte(format1Snapshot))
				return err
			}, "format 1, this build reads format 2; retrain"},
	}
	for _, tc := range cases {
		o := tc.o
		o.SnapshotDir = t.TempDir()
		if tc.setup != nil {
			if err := tc.setup(o.SnapshotDir); err != nil {
				t.Fatal(err)
			}
		}
		if err := run(o); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error = %v, want it to mention %q", tc.name, err, tc.wantSub)
		}
	}
}
