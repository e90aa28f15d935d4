package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simulate"
	"repro/internal/smart"
)

func TestRunSynthetic(t *testing.T) {
	// Small synthetic fleet end to end through the CLI path.
	if err := run("MB2", 400, 1, 6, "", "", 20, true, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadModel(t *testing.T) {
	if err := run("NOPE", 400, 1, 1, "", "", 20, true, "", ""); err == nil {
		t.Error("bad model should fail")
	}
}

func TestRunWithFaults(t *testing.T) {
	// The faulted CLI path must complete in robust mode.
	if err := run("MB2", 400, 1, 6, "", "", 20, true, "seed=3,gaps=0.02,nan=0.01", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFaultSpec(t *testing.T) {
	if err := run("MB2", 400, 1, 6, "", "", 20, true, "gaps=2", ""); err == nil {
		t.Error("out-of-range fault rate should fail")
	}
}

func TestRunCustomRankers(t *testing.T) {
	// A registry-resolved ensemble (including the new entrants) must
	// run end to end through the CLI path.
	if err := run("MB2", 400, 1, 6, "", "", 20, true, "", "pearson, mutual-info,svm"); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownRanker(t *testing.T) {
	// Unknown ranker names fail fast — before any dataset work — with
	// the registered names in the error.
	err := run("MB2", 400, 1, 6, "", "", 20, true, "", "pearson,bogus")
	if err == nil {
		t.Fatal("unknown ranker should fail")
	}
	for _, want := range []string{"bogus", "svm-margin"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	fleet, err := simulate.New(simulate.Config{TotalDrives: 300, Days: 120, Seed: 2, AFRScale: 6})
	if err != nil {
		t.Fatal(err)
	}
	src := dataset.FleetSource{Fleet: fleet}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "smart.csv")
	ticketPath := filepath.Join(dir, "tickets.csv")

	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteModelCSV(lf, src, smart.MC1); err != nil {
		t.Fatal(err)
	}
	lf.Close()
	tf, err := os.Create(ticketPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteTicketsCSV(tf, src, []smart.ModelID{smart.MC1}); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	logs, err := loadCSV(logPath, ticketPath)
	if err != nil {
		t.Fatal(err)
	}
	if logs.Model() != smart.MC1 {
		t.Errorf("model = %v", logs.Model())
	}
	// The CLI path over CSV input.
	if err := run("MC1", 0, 2, 0, logPath, ticketPath, 20, true, "", ""); err != nil {
		t.Fatal(err)
	}
	// Model mismatch is rejected.
	if err := run("MA1", 0, 2, 0, logPath, ticketPath, 20, true, "", ""); err == nil {
		t.Error("model mismatch should fail")
	}
}

func TestLoadCSVMissingFiles(t *testing.T) {
	if _, err := loadCSV("/nonexistent/x.csv", ""); err == nil {
		t.Error("missing log file should fail")
	}
}
