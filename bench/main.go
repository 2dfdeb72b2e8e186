// Command bench is kgvote's benchmark: it builds kgvoted and kgrouter from
// the tree it sits in, boots them as real processes on loopback sockets,
// drives them from this one process over at most two connections, checks
// their answers, and prints every metric BENCHMARK.json declares. See
// README.md in this directory.
//
//	go run -C bench . -workload ask_cold -seed 1 -seconds 15 -trace 0
//	go run -C bench . -workload all -runs 10 -record runs/a.json
//	go run -C bench . -compare runs/a.json runs/b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: ask_cold, ask_routed, vote_stream, flush_sm, or all")
		seed     = flag.Int64("seed", 1, "generator seed: the question streams, the hot set, the reader's schedule and, on the vote workloads, the order of the voter's questions derive from it; the daemons never see it")
		seconds  = flag.Float64("seconds", 0, "run length; 0 takes run_seconds from BENCHMARK.json")
		trace    = flag.Int("trace", 0, "1 runs the traced variant (one-third length, ?trace=1 on every ask, in-process replay) and prints the per-layer metrics in place of the end-to-end ones")
		runs     = flag.Int("runs", 1, "repeat the selected workloads this many times, on seeds seed, seed+1, ...")
		recordTo = flag.String("record", "", "append each run's record, with provenance, to this run-set file")
		out      = flag.String("out", "", "directory for trace-<workload>.json (default .bench_build/out in the checkout)")
		smoke    = flag.Bool("smoke", false, "one second per workload: boots every topology and makes every correctness check")
		compare  = flag.Bool("compare", false, "compare two run-set files given as arguments, workload by workload and metric by metric, against the bounds in BENCHMARK.json; exit non-zero on any regression")
		where    = flag.String("where", "", "print the where-the-time-goes tables of the traced runs in this run-set file")
	)
	flag.Parse()
	os.Exit(run(options{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, runs: *runs,
		record: *recordTo, out: *out, smoke: *smoke, compare: *compare, where: *where, args: flag.Args(),
	}))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	runs     int
	record   string
	out      string
	smoke    bool
	compare  bool
	where    string
	args     []string
	// refCorpus is runner.refCorpus; no flag sets it.
	refCorpus []byte
}

// run is main without os.Exit, so that deferred clean-up happens.
func run(o options) int {
	// go run -C bench puts the process in bench/; the checkout is above it.
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(wd, "BENCHMARK.json")); err == nil {
		root = wd // started from the checkout's root
	}
	bm, err := loadBenchmarkFile(root)
	if err != nil {
		return fail(err)
	}
	if o.compare {
		if len(o.args) != 2 {
			return fail(fmt.Errorf("-compare needs two run-set files"))
		}
		return compareFiles(bm, absFrom(wd, o.args[0]), absFrom(wd, o.args[1]))
	}
	if o.where != "" {
		set, err := readRunSet(absFrom(wd, o.where))
		if err != nil {
			return fail(err)
		}
		for i := range set.Runs {
			if set.Runs[i].Traced {
				printShares(&set.Runs[i])
			}
		}
		return 0
	}
	if o.seconds == 0 {
		o.seconds = float64(bm.RunSeconds)
	}
	if o.smoke {
		o.seconds = 1
	}
	var selected []spec
	for _, w := range bm.Workloads {
		if s, ok := specByName(w.Name); ok && (o.workload == "all" || o.workload == w.Name) {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	build := filepath.Join(root, ".bench_build")
	tmp := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	if o.out == "" {
		o.out = filepath.Join(build, "out")
	}
	fl := &fleet{}
	defer fl.killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fl.killAll()
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	prov := gatherProvenance(root)
	status := 0
	for i := 0; i < o.runs; i++ {
		for _, s := range selected {
			r := &runner{
				spec: s, seed: o.seed + int64(i), seconds: o.seconds, traced: o.traced,
				root: root, bin: filepath.Join(build, "bin"), tmp: filepath.Join(tmp, fmt.Sprintf("%s-%d", s.name, i)),
				out: absFrom(wd, o.out), fleet: fl, refCorpus: o.refCorpus,
				rec: &record{
					Workload: s.name, Seed: o.seed + int64(i), Seconds: o.seconds, Traced: o.traced, Provenance: prov,
					Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}, Tails: map[string]tailValue{},
				},
			}
			if o.traced {
				r.tr = newTracer()
			}
			err := r.run()
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", s.name+":", err)
				fmt.Fprint(os.Stderr, fl.stderrTails())
				fl.killAll()
				return 1
			}
			if !r.rec.Correct {
				fmt.Fprint(os.Stderr, fl.stderrTails())
				status = 1
			}
			fl.killAll()
			os.RemoveAll(r.tmp)
			defs, other := bm.defs(o.traced), bm.defs(!o.traced)
			printTable(r.rec, defs, other)
			line, err := contractLine(r.rec, defs, other)
			if err != nil {
				return fail(err)
			}
			if o.record != "" {
				if err := appendRecord(absFrom(wd, o.record), r.rec); err != nil {
					return fail(err)
				}
			}
			// The driver reads the last line of standard output.
			fmt.Println(line)
		}
	}
	return status
}

func absFrom(dir, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(dir, path)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}
