package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. That file is the
// only place a metric's unit, direction and bound are written down; the code
// names metrics and takes the rest from here.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// defs returns the metric list a run of the given kind must report.
func (f *benchmarkFile) defs(traced bool) []metricDef {
	if traced {
		return f.PerLayer
	}
	return f.EndToEnd
}

// provenance is what makes a number comparable with another: a record with
// any of these empty is not written. The commit comes from git, so a tree
// that is not a git work tree can be measured but not recorded.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Kernel     string `json:"kernel"`
}

func gatherProvenance(root string) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if top, err := git("rev-parse", "--show-toplevel"); err == nil && sameDir(top, root) {
		if head, err := git("rev-parse", "HEAD"); err == nil {
			p.Commit = head
			status, _ := git("status", "--porcelain")
			p.Dirty = status != ""
		}
	}
	return p
}

func sameDir(a, b string) bool {
	ra, err1 := filepath.EvalSymlinks(a)
	rb, err2 := filepath.EvalSymlinks(b)
	return err1 == nil && err2 == nil && ra == rb
}

// tailValue is the highest percentile a timing supports, with its value.
type tailValue struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// record is one run of one workload.
type record struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Traced     bool                  `json:"traced"`
	Provenance provenance            `json:"provenance"`
	Commands   []string              `json:"daemon_commands"`
	Correct    bool                  `json:"correct"`
	Attempted  int                   `json:"attempted"`
	Failed     int                   `json:"failed"`
	Problems   []string              `json:"problems,omitempty"`
	Metrics    map[string]float64    `json:"metrics"`
	Samples    map[string]int        `json:"samples,omitempty"`
	Tails      map[string]tailValue  `json:"tails,omitempty"`
	Shares     map[string]shareTable `json:"where_the_time_goes,omitempty"`
}

// validate refuses a record whose provenance has a hole: a number nobody can
// place is worse than no number.
func (r *record) validate() error {
	var missing []string
	need := func(name string, ok bool) {
		if !ok {
			missing = append(missing, name)
		}
	}
	need("commit", r.Provenance.Commit != "")
	need("go_version", r.Provenance.GoVersion != "")
	need("gomaxprocs", r.Provenance.GOMAXPROCS > 0)
	need("num_cpu", r.Provenance.NumCPU > 0)
	need("kernel", r.Provenance.Kernel != "")
	need("daemon_commands", len(r.Commands) > 0)
	need("workload", r.Workload != "")
	if len(missing) > 0 {
		return fmt.Errorf("run record refused, provenance missing: %s", strings.Join(missing, ", "))
	}
	return nil
}

// runSet is the file -record appends to and -compare reads.
type runSet struct {
	Runs []record `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// appendRecord adds rec to the run set at path, creating the file if needed.
func appendRecord(path string, rec *record) error {
	if err := rec.validate(); err != nil {
		return err
	}
	set, err := readRunSet(path)
	if errors.Is(err, os.ErrNotExist) {
		set, err = &runSet{}, nil
	}
	if err != nil {
		return err
	}
	set.Runs = append(set.Runs, *rec)
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine renders the one-line JSON object the driver reads: the
// metrics BENCHMARK.json declares for this kind of run (defs). It fails when
// one of those was not measured, or when the run measured a metric the file
// declares for neither kind (other is the other kind's list): file and code
// may not drift apart.
func contractLine(rec *record, defs, other []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	declared := map[string]bool{}
	var problems []string
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := rec.Metrics[d.Name]
		if !ok {
			problems = append(problems, "not measured: "+d.Name)
			continue
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	for _, d := range other {
		declared[d.Name] = true
	}
	for name := range rec.Metrics {
		if !declared[name] {
			problems = append(problems, "not in BENCHMARK.json: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return "", fmt.Errorf("metrics and BENCHMARK.json disagree: %s", strings.Join(problems, "; "))
	}
	if out.Attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printTable lists every metric the run measured, by name with its value,
// unit, sample count and supported tail: first the ones this kind of run
// reports to the driver, then the rest.
func printTable(rec *record, defs, other []metricDef) {
	fmt.Printf("%s  seed=%d  traced=%v  attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Attempted, rec.Failed, rec.Correct)
	for _, d := range other {
		if _, ok := rec.Metrics[d.Name]; ok {
			defs = append(defs[:len(defs):len(defs)], d)
		}
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %14.4f %-6s", d.Name, rec.Metrics[d.Name], d.Unit)
		if n, ok := rec.Samples[d.Name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		if t, ok := rec.Tails[d.Name]; ok {
			line += fmt.Sprintf("  p%g=%.1f", t.Percentile*100, t.Value)
		}
		fmt.Println(line)
	}
	for _, p := range rec.Problems {
		fmt.Println("  FAILED CHECK:", p)
	}
}
