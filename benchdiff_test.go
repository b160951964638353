package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchRecord is a minimal comparable bench.sh record dated at date.
func benchRecord(date string) string {
	return `{
  "date": "` + date + `",
  "go": "go1.24.0",
  "gomaxprocs": 2,
  "smoke": false,
  "benchmarks": [
    {"name": "BenchmarkX-2", "workers": 1, "ns_per_op": 100, "bytes_per_op": 0, "allocs_per_op": 0}
  ]
}
`
}

// scripts/benchdiff.sh with no arguments must compare the two records
// in the order of their "date" fields. File mtimes cannot order them: a
// git checkout gives every file the checkout time, and a copied or
// touched record can look newer than it is.
func TestBenchdiffOrdersRecordsByDate(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	script, err := os.ReadFile(filepath.Join("scripts", "benchdiff.sh"))
	if err != nil {
		t.Fatal(err)
	}
	// The earlier record also sorts first by name, so neither a name
	// nor an mtime order gets the pair right by accident.
	const early, late = "BENCH_2026-01-01.json", "BENCH_2026-01-01_b.json"
	mtime := time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name            string
		earlyMT, lateMT time.Time
	}{
		{"equal mtimes", mtime, mtime},
		{"inverted mtimes", mtime.Add(time.Hour), mtime},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, "scripts"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "scripts", "benchdiff.sh"), script, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				file, date string
				mt         time.Time
			}{
				{early, "2026-01-01T01:32:00+0000", tc.earlyMT},
				{late, "2026-01-01T09:41:31+0000", tc.lateMT},
			} {
				path := filepath.Join(dir, r.file)
				if err := os.WriteFile(path, []byte(benchRecord(r.date)), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(path, r.mt, r.mt); err != nil {
					t.Fatal(err)
				}
			}
			out, err := exec.Command("bash", filepath.Join(dir, "scripts", "benchdiff.sh")).CombinedOutput()
			if err != nil {
				t.Fatalf("benchdiff: %v\n%s", err, out)
			}
			want := "benchdiff: " + early + " -> " + late
			if first, _, _ := strings.Cut(string(out), "\n"); first != want {
				t.Fatalf("first line %q, want %q", first, want)
			}
		})
	}
}
