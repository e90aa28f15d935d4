package main

import (
	"strings"
	"testing"
)

// baseOptions is a syntactically valid option set; the failure-path
// audit mutates one field at a time.
func baseOptions() options {
	return options{
		Model: "MC2", Selector: "wefr",
		Drives: 100, Days: 120, Seed: 1, AFRScale: 3,
		Trees: 3, Depth: 4,
		Dir: "somewhere", Start: 100, End: 110,
		Canary: 5, Window: 30,
	}
}

// TestRunRejectsBadOptions audits the CLI's failure paths: every
// malformed invocation must surface an error (main turns it into a
// nonzero exit on stderr) instead of panicking or silently proceeding.
func TestRunRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantSub string
	}{
		{"unknown model", func(o *options) { o.Model = "MX9" }, "MX9"},
		{"missing dir", func(o *options) { o.Dir = "" }, "-dir"},
		{"unknown selector", func(o *options) { o.Selector = "magic" }, "magic"},
		{"end beyond horizon", func(o *options) { o.End = 500 }, "horizon"},
		{"start without training days", func(o *options) { o.Start = 0 }, "bootstrap"},
		{"window not above canary", func(o *options) { o.Window = 5; o.Canary = 5 }, "canary"},
	}
	for _, tc := range cases {
		o := baseOptions()
		// Failure paths must trip before any state directory is
		// created; Dir points at nothing runnable.
		o.Dir = t.TempDir() + "/state"
		tc.mutate(&o)
		err := run(o)
		if err == nil {
			t.Errorf("%s: run succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestSelectorByName(t *testing.T) {
	for _, name := range []string{"wefr", "wefr-noupdate", "none"} {
		if _, err := selectorByName(name); err != nil {
			t.Errorf("selector %q: %v", name, err)
		}
	}
	if _, err := selectorByName("WEFR"); err == nil {
		t.Error("selector lookup is unexpectedly case-insensitive")
	}
}
