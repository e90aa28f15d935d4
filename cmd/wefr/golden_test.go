package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
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

// TestGoldenOutput pins the clean-path CLI output byte for byte: the
// staged-engine refactor (and any later internal change) must keep
// wefr's stdout identical to the pre-refactor pipeline on the same
// fleet and flags.
func TestGoldenOutput(t *testing.T) {
	got := captureStdout(t, func() error {
		return run("MC1", 500, 3, 6, "", "", 20, false, "", "")
	})
	goldenPath := filepath.Join("testdata", "golden_mc1.txt")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s (%d vs %d bytes).\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, len(got), len(want), got, string(want))
	}
}
