package main

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestLatestPriorReport is the graceful-degradation table for the
// delta baseline: a missing prior is not an error, a valid prior
// loads, and a corrupt or unreadable prior surfaces an error naming
// the file — which run() downgrades to a warning instead of failing
// the whole benchmark run. The newest prior is chosen by the date and
// run number in its name, never by mtime: files get mtimes in lexical
// name order (or all the same one), which for run suffixes is the
// wrong order.
func TestLatestPriorReport(t *testing.T) {
	valid := `{"date": "2026-01-01", "benchmarks": {"forest-fit": {"ns_per_op": 100}}}`
	cases := []struct {
		name     string
		files    map[string]string
		unread   string // file to make unreadable (chmod 0)
		sameTime bool   // give every file one mtime, as a fresh clone does
		wantNil  bool
		wantErr  string
		wantPath string
	}{
		{name: "no prior", files: nil, wantNil: true},
		{
			name:     "valid prior",
			files:    map[string]string{"BENCH_2026-01-01.json": valid},
			wantPath: "BENCH_2026-01-01.json",
		},
		{
			name:    "corrupt prior",
			files:   map[string]string{"BENCH_2026-01-02.json": `{"benchmarks": truncated`},
			wantErr: "BENCH_2026-01-02.json",
		},
		{
			name:    "unreadable prior",
			files:   map[string]string{"BENCH_2026-01-03.json": valid},
			unread:  "BENCH_2026-01-03.json",
			wantErr: "BENCH_2026-01-03.json",
		},
		{
			name: "output path excluded",
			files: map[string]string{
				"BENCH_today.json": `not json at all`, // the run's own output: ignored
			},
			wantNil: true,
		},
		{
			name: "newest prior wins",
			files: map[string]string{
				"BENCH_2026-01-01.json": `corrupt old`,
				"BENCH_2026-01-05.json": valid,
			},
			wantPath: "BENCH_2026-01-05.json",
		},
		{
			name: "equal mtimes",
			files: map[string]string{
				"BENCH_2026-08-06.json":   `corrupt old`,
				"BENCH_2026-08-06.2.json": `corrupt old`,
				"BENCH_2026-10-17.json":   valid,
				"BENCH_2026-08-08.json":   `corrupt old`,
			},
			sameTime: true,
			wantPath: "BENCH_2026-10-17.json",
		},
		{
			name: "run 2 beats no suffix",
			files: map[string]string{
				"BENCH_2026-08-06.json":   `corrupt old`,
				"BENCH_2026-08-06.2.json": valid,
			},
			wantPath: "BENCH_2026-08-06.2.json",
		},
		{
			name: "run 10 beats run 9",
			files: map[string]string{
				"BENCH_2026-08-06.9.json":  `corrupt old`,
				"BENCH_2026-08-06.10.json": valid,
			},
			wantPath: "BENCH_2026-08-06.10.json",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			now := time.Now()
			names := make([]string, 0, len(c.files))
			for name := range c.files {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, []byte(c.files[name]), 0o644); err != nil {
					t.Fatal(err)
				}
				// Lexical name order sets the mtimes, so any reliance on
				// them is deterministic.
				if !c.sameTime {
					now = now.Add(time.Second)
				}
				if err := os.Chtimes(path, now, now); err != nil {
					t.Fatal(err)
				}
			}
			if c.unread != "" {
				if os.Getuid() == 0 {
					t.Skip("chmod 0 is not enforceable as root")
				}
				if err := os.Chmod(filepath.Join(dir, c.unread), 0); err != nil {
					t.Fatal(err)
				}
			}
			prior, path, err := latestPriorReport(dir, filepath.Join(dir, "BENCH_today.json"))
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want mention of %s", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.wantNil {
				if prior != nil {
					t.Fatalf("prior = %+v, want nil", prior)
				}
				return
			}
			if prior == nil || filepath.Base(path) != c.wantPath {
				t.Fatalf("prior from %q, want %q", path, c.wantPath)
			}
			if prior.Benchmarks["forest-fit"].NsPerOp != 100 {
				t.Errorf("loaded report: %+v", prior)
			}
		})
	}
}

// TestWriteFileAtomic verifies the report write never leaves a partial
// file: the target either has the full payload or (on failure) does
// not exist, and no temp files linger.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := writeFileAtomic(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "payload" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// Overwrite is atomic too.
	if err := writeFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "second" {
		t.Fatalf("after overwrite: %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d entries in dir, want 1 (temp leak?)", len(entries))
	}
	// A write into a missing directory fails without creating anything.
	missing := filepath.Join(dir, "no", "such", "dir", "x.json")
	if err := writeFileAtomic(missing, []byte("x")); err == nil {
		t.Error("write into missing directory succeeded")
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("partial output exists: %v", err)
	}
}
