package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func captureRun(t *testing.T, fig, preset string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(fig, preset, "", f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunValidation(t *testing.T) {
	if _, err := captureRun(t, "5a", "nope"); err == nil {
		t.Error("bogus preset accepted, want error")
	}
	if _, err := captureRun(t, "99", "quick"); err == nil {
		t.Error("bogus figure accepted, want error")
	}
}

func TestRunSingleFigures(t *testing.T) {
	tests := []struct {
		fig  string
		want string
	}{
		{fig: "1", want: "motivating example"},
		{fig: "5b", want: "fig5b-system"},
		{fig: "7", want: "mis-detection rate"},
		{fig: "baselines", want: "baselines at equal budget"},
	}
	for _, tt := range tests {
		t.Run(tt.fig, func(t *testing.T) {
			out, err := captureRun(t, tt.fig, "quick")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, out)
			}
		})
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full quick sweep in short mode")
	}
	out, err := captureRun(t, "all", "quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fig1", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8",
		"baselines at equal budget",
		"ablation: slack-and-patience",
		"ablation: aggregation window",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("all-figures output missing %q", want)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run("5b", "quick", filepath.Join(dir, "csv"), out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "csv", "fig5b.csv"))
	if err != nil {
		t.Fatalf("fig5b.csv not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "selectivity_pct,err_allowance,sampling_ratio,misdetect_rate,alerts,missed" {
		t.Errorf("csv header = %q", lines[0])
	}
	// Quick preset: 3 k-values × 3 err-values + header.
	if len(lines) != 10 {
		t.Errorf("csv has %d lines, want 10", len(lines))
	}
}
