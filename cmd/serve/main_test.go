package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// baseOptions is a small, fast option set for end-to-end CLI runs.
func baseOptions(t *testing.T) options {
	return options{
		Dir: t.TempDir(), Artifacts: "serving", Model: "MC1",
		Drives: 150, Days: 120, Seed: 1, AFRScale: 4,
		Trees: 4, Depth: 4, Bootstrap: true,
		Loadgen: true, QPS: 300, LoadFor: 400 * time.Millisecond,
		Period: 200 * time.Millisecond, Amp: 0.5,
	}
}

// TestRunLoadgen exercises the whole CLI end to end: bootstrap-train
// version 1, serve on loopback, generate mixed-path load against
// self, and print a well-formed error-free JSON report.
func TestRunLoadgen(t *testing.T) {
	o := baseOptions(t)
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Requests == 0 {
		t.Fatal("load run issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests errored:\n%s", rep.Errors, rep.Requests, out.String())
	}
	if len(rep.Paths) == 0 {
		t.Fatal("report has no per-path stats")
	}

	// A second run against the same registry must reuse version 1, not
	// retrain — even without -bootstrap.
	o.Bootstrap = false
	o.LoadFor = 100 * time.Millisecond
	out.Reset()
	if err := run(o, &out); err != nil {
		t.Fatalf("second run against existing registry: %v", err)
	}
}

// format1Snapshot is a serving artifact in the retired format 1 (gob
// model payload), which the daemon must refuse to boot on with a
// retrain hint.
const format1Snapshot = `{"format": 1, "model": 3, "selector": "wefr",` +
	` "groups": [{"features": ["MWI_N"], "predictor": 1, "model_data": "AAEC"}],` +
	` "thresholds": [0.5], "trained_through": 90, "config_hash": "abcd"}`

// TestRunRejectsBadOptions audits the CLI's failure paths; main turns
// each error into a nonzero exit with the message on stderr.
func TestRunRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantSub string
	}{
		{"unknown model", func(o *options) { o.Model = "MX9" }, "MX9"},
		{"missing dir", func(o *options) { o.Dir = "" }, "-dir"},
		{"empty registry without bootstrap", func(o *options) { o.Bootstrap = false }, "-bootstrap"},
		{"training span too large", func(o *options) { o.TrainDays = 500 }, "span"},
		{"format-1 registry", func(o *options) {
			// A failed save leaves the registry empty, which fails on
			// -bootstrap instead and so still fails the row.
			(&core.Registry{Dir: o.Dir}).Save(o.Artifacts, []byte(format1Snapshot))
			o.Bootstrap = false
		}, "format 1, this build reads format 2; retrain"},
	}
	for _, tc := range cases {
		o := baseOptions(t)
		tc.mutate(&o)
		err := run(o, &bytes.Buffer{})
		if err == nil {
			t.Errorf("%s: run succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}
