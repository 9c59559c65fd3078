package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if err := run("bogus", 100, 1, ""); err == nil {
		t.Error("unknown kind accepted, want error")
	}
}

func TestRunKinds(t *testing.T) {
	for _, kind := range []string{"netflow", "sysmetrics", "httplog"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			if err := run(kind, 200, 1, ""); err != nil {
				t.Errorf("run(%s): %v", kind, err)
			}
		})
	}
}

func TestRunCSVDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := run("sysmetrics", 50, 1, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 51 { // header + 50 rows
		t.Fatalf("CSV has %d lines, want 51", len(lines))
	}
	if !strings.HasPrefix(lines[0], "step,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if cols := strings.Count(lines[1], ","); cols != 6 {
		t.Errorf("data row has %d commas, want 6 (step + 6 metrics)", cols)
	}
}

func TestWriteCSVLargeBuffered(t *testing.T) {
	// Exercise the buffered flush path with a longer dump.
	path := filepath.Join(t.TempDir(), "big.csv")
	if err := run("httplog", 8000, 2, path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 1<<16 {
		t.Errorf("expected CSV larger than one flush buffer, got %d bytes", info.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 8001 {
		t.Errorf("CSV has %d lines, want 8001", got)
	}
}

// TestWriteCSVReportsWriteFailure: a dump that cannot be written is an
// error, not a truncated file and a clean exit. /dev/full accepts the open
// and fails every write with ENOSPC.
func TestWriteCSVReportsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	series := [][]float64{{1, 2, 3}}
	if err := writeCSV("/dev/full", []string{"a"}, series); err == nil {
		t.Error("writing to a full device reported no error")
	}
}
