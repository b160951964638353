package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies what a result was measured on. Results taken
// at different core counts do not compare.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, "unknown"
	// outside a git checkout; Source hashes every .go and go.mod file of
	// the tree, so it identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	Model  string `json:"model"`
}

// metric is one reported figure with its sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is one run's result: the metrics the run reports, figures it
// prints for information only, and the correctness verdict.
type record struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Mismatches  int               `json:"mismatches"`
	Metrics     map[string]metric `json:"metrics"`
	Info        map[string]metric `json:"info,omitempty"`
	order       []string
}

func (r *runner) newRecord() *record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d served predictions differ from their references; first: %s\n", r.mismatches, r.mismatch)
	}
	return &record{
		Fingerprint: fingerprint{
			Workload:   r.w.name,
			Seed:       r.seed,
			Trace:      r.trace,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Source:     sourceHash(),
			Model:      modelSource(),
		},
		Correct:    r.mismatches == 0,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Mismatches: r.mismatches,
		Metrics:    map[string]metric{},
		Info:       map[string]metric{},
	}
}

func (rec *record) add(name string, v float64, unit string, n int) {
	rec.Metrics[name] = metric{v, unit, n}
	rec.order = append(rec.order, name)
}

func (rec *record) info(name string, v float64, unit string, n int) {
	rec.Info[name] = metric{v, unit, n}
	rec.order = append(rec.order, name)
}

// write prints the fingerprint and every figure with its unit and
// sample count, stores the record under outDir, and prints the result
// line last.
func (rec *record) write() error {
	fp, err := json.Marshal(rec.Fingerprint)
	if err != nil {
		return err
	}
	fmt.Printf("FINGERPRINT %s\n", fp)
	for _, name := range rec.order {
		m, ok := rec.Metrics[name]
		kind := "metric"
		if !ok {
			m, kind = rec.Info[name], "info"
		}
		fmt.Printf("%-6s %-34s %14.6g %-6s n=%d\n", kind, name, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d mismatches=%d\n", rec.Correct, rec.Attempted, rec.Failed, rec.Mismatches)

	full, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Fingerprint.Workload, rec.Fingerprint.Seed, btoi(rec.Fingerprint.Trace)))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash hashes the path and content of every .go and go.mod file
// under the repository root, in path order.
func sourceHash() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == outDir) {
			return fs.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelSource names the served model and hashes its cached weights.
func modelSource() string {
	mc, err := loadModel()
	if err != nil {
		return "unavailable: " + err.Error()
	}
	p := mc.params
	file := filepath.Join(modelCache, fmt.Sprintf("%s-%d-%d-%d-%d.gob", p.Dataset, p.TrainN, p.Epochs, p.WidthDiv, p.Seed))
	sum := "missing"
	if b, err := os.ReadFile(file); err == nil {
		s := sha256.Sum256(b)
		sum = hex.EncodeToString(s[:])
	}
	return fmt.Sprintf("%s/tiny weights %s sha256:%s", p.Dataset, file, sum)
}

// compareRecords prints each metric of two result records side by side.
// It refuses records taken at different core counts or GOMAXPROCS, or
// on different workloads.
func compareRecords(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "e2ebench: --compare wants two result records")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := recs[0].Fingerprint, recs[1].Fingerprint
	if a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare results at different core counts (nproc %d vs %d, GOMAXPROCS %d vs %d)\n",
			a.NumCPU, b.NumCPU, a.GOMAXPROCS, b.GOMAXPROCS)
		return 1
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "e2ebench: refusing to compare %s (trace %v) with %s (trace %v)\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 1
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for n := range recs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %8s\n", "metric", args[0], args[1], "new/old")
	for _, n := range names {
		o, ok := recs[1].Metrics[n]
		if !ok {
			continue
		}
		v := recs[0].Metrics[n]
		r := 0.0
		if v.Value != 0 {
			r = o.Value / v.Value
		}
		fmt.Printf("%-34s %14.6g %14.6g %8.3f %s\n", n, v.Value, o.Value, r, v.Unit)
	}
	return 0
}
