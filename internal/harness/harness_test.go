package harness

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/sgp"
	"kgvote/internal/synth"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{
		Seed:             1,
		Topics:           4,
		EntitiesPerTopic: 10,
		Docs:             48,
		EntitiesPerDoc:   5,
		TrainQuestions:   24,
		TestQuestions:    24,
		K:                8,
		L:                3,
		GraphScale:       0.004,
		Votes:            []int{2, 4},
		AnswerCounts:     []int{20, 40},
		Workers:          2,
		TimingQueries:    2,
		Lengths:          []int{2, 3, 4},
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n"},
	}
	s := tab.String()
	for _, want := range []string{"T\n", "xxx", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fixture experiment; skipped in -short")
	}
	tab, err := TableIII(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("no optimized edges reported:\n%s", tab)
	}
	for _, row := range tab.Rows {
		if len(row) != 5 {
			t.Fatalf("row shape: %v", row)
		}
		orig, err1 := strconv.ParseFloat(row[2], 64)
		opt, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable weights in row %v", row)
		}
		if orig == opt {
			t.Errorf("unchanged edge reported: %v", row)
		}
		if row[0] == "" || row[1] == "" {
			t.Errorf("entity names missing: %v", row)
		}
	}
}

func TestTableIVShapeAndImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fixture experiment; skipped in -short")
	}
	tab, err := TableIV(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3:\n%s", len(tab.Rows), tab)
	}
	orig, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := strconv.ParseFloat(tab.Rows[2][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if orig <= 1 {
		t.Skipf("degenerate fixture: original R_avg = %v", orig)
	}
	// The paper's headline: the multi-vote solution improves the average
	// ranking of best answers.
	if multi > orig {
		t.Errorf("multi-vote R_avg %v worse than original %v:\n%s", multi, orig, tab)
	}
}

func TestTableVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fixture experiment; skipped in -short")
	}
	tab, err := TableV(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5:\n%s", len(tab.Rows), tab)
	}
	parse := func(row []string) []float64 {
		out := make([]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				t.Fatalf("unparsable H@k in %v", row)
			}
			out[i] = v
		}
		return out
	}
	for _, row := range tab.Rows {
		hs := parse(row)
		for i := 0; i+1 < len(hs); i++ {
			if hs[i] > hs[i+1]+1e-9 {
				t.Errorf("H@k must be non-decreasing in k: %v", row)
			}
		}
	}
	// Robust shape claims at test scale: the multi-vote solution must not
	// hurt the KG at H@10, and must beat the single-vote solution at H@1
	// (the paper's central comparison). The IR column is noise-free (it
	// never reads the corrupted graph), so KG-vs-IR is only meaningful at
	// cmd/experiments scale; see EXPERIMENTS.md.
	kg := parse(tab.Rows[2])
	single := parse(tab.Rows[3])
	multi := parse(tab.Rows[4])
	// One-question tolerance: at 24 test questions each hit is worth
	// 1/24 ≈ 0.042 of H@k, well within seed noise.
	tol := 1.0/float64(tiny().TestQuestions) + 1e-9
	if multi[3] < kg[3]-tol {
		t.Errorf("multi-vote degraded KG H@10 (kg=%v multi=%v):\n%s", kg[3], multi[3], tab)
	}
	if multi[0] < single[0]-tol {
		t.Errorf("multi-vote H@1 %v below single-vote %v:\n%s", multi[0], single[0], tab)
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fixture experiment; skipped in -short")
	}
	tab, err := Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for col := 1; col <= 4; col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v < 0 || v > 1 {
				t.Errorf("column %d out of range: %v", col, row)
			}
		}
	}
}

// TestCorruptedSystemServesCorruptedWeights: the fixtures' weight
// corruption goes through the engine, so the serving snapshot ranks the
// corrupted graph — score for score what a fresh compile of it ranks —
// rather than the weights the system was built with.
func TestCorruptedSystemServesCorruptedWeights(t *testing.T) {
	f, err := newTaobaoFixture(tiny().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := f.buildCorrupted()
	if err != nil {
		t.Fatal(err)
	}
	opt := pathidx.Options{L: f.cfg.L, C: sys.Engine.Options().C}
	ref, err := pathidx.NewCSRScorer(graph.Compile(sys.Aug.Graph), opt)
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, q := range f.test {
		ids, ws, _, err := sys.Seed(q)
		if err != nil {
			continue
		}
		_, got, err := sys.RankSnapshot(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RankSeeded(ids, ws, sys.ServingAnswers(), f.cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("question %d: %d ranked, want %d", q.ID, len(got), len(want))
		}
		for i := range want {
			if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("question %d rank %d: serving %v, corrupted graph %v", q.ID, i, got[i], want[i])
			}
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no test question could be seeded")
	}
}

func TestTableVIShape(t *testing.T) {
	cfg := tiny()
	tab, err := TableVI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.AnswerCounts) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(cfg.AnswerCounts))
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("speedup cell malformed: %v", row)
		}
	}
}

func TestFigure6SmallSweep(t *testing.T) {
	cfg := tiny()
	profiles := []synth.Profile{synth.Twitter.Scaled(cfg.GraphScale)}
	rows, err := Figure6(cfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Votes) * 4 // 4 solver variants
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	solvers := map[string]bool{}
	for _, r := range rows {
		solvers[r.Solver] = true
		if r.Elapsed <= 0 {
			t.Errorf("non-positive elapsed for %+v", r)
		}
	}
	for _, s := range []string{"Multi-Vote", "S-M", "Distributed S-M", "Single-Vote"} {
		if !solvers[s] {
			t.Errorf("missing solver %q", s)
		}
	}
	tab := Figure6Table(rows)
	if len(tab.Rows) != len(rows) {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestFigure7PD(t *testing.T) {
	cfg := tiny()
	profiles := []synth.Profile{synth.Digg.Scaled(cfg.GraphScale)}
	tab, err := Figure7PD(cfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Rows[0]) != len(cfg.Lengths) {
		t.Errorf("cells = %d, want %d", len(tab.Rows[0]), len(cfg.Lengths))
	}
}

func TestFigure7Time(t *testing.T) {
	cfg := tiny()
	profiles := []synth.Profile{synth.Digg.Scaled(cfg.GraphScale)}
	tab, err := Figure7Time(cfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != len(cfg.Lengths)+1 {
		t.Fatalf("table shape wrong:\n%s", tab)
	}
}

func TestFigure2(t *testing.T) {
	tab := Figure2()
	if len(tab.Rows) == 0 {
		t.Fatalf("no rows")
	}
	for _, row := range tab.Rows {
		absErr, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("unparsable error cell: %v", row)
		}
		x, _ := strconv.ParseFloat(row[0], 64)
		if x > 0.05 || x < -0.05 {
			if absErr > 1e-6 {
				t.Errorf("sigmoid far from step away from origin: %v", row)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fixture experiment; skipped in -short")
	}
	cfg := tiny()
	for name, fn := range map[string]func(Config) (Table, error){
		"solver-mode": AblationSolverMode,
		"merge-rule":  AblationMergeRule,
		"scorer":      AblationScorer,
		"normalize":   AblationNormalize,
		"cluster":     AblationCluster,
	} {
		tab, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) < 2 {
			t.Errorf("%s: rows = %d", name, len(tab.Rows))
		}
	}
}

func TestPaperConfigIsLarger(t *testing.T) {
	p := Paper()
	d := Config{}.withDefaults()
	if p.Docs <= d.Docs || p.K <= d.K || p.GraphScale <= d.GraphScale {
		t.Errorf("Paper() should exceed defaults: %+v vs %+v", p, d)
	}
	if len(p.Votes) != 6 {
		t.Errorf("paper vote sweep = %v", p.Votes)
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,1", `he said "hi"`}, {"plain", "cell"}},
	}
	got := tab.CSV()
	want := "a,b\n\"x,1\",\"he said \"\"hi\"\"\"\nplain,cell\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestHelperFormatters(t *testing.T) {
	if got := f2(1.234); got != "1.23" {
		t.Errorf("f2 = %q", got)
	}
	if got := f3(0.1); got != "0.100" {
		t.Errorf("f3 = %q", got)
	}
	if got := pct(0.1882); got != "18.82%" {
		t.Errorf("pct = %q", got)
	}
	if got := maxDuration(2, 5); got != 5 {
		t.Errorf("maxDuration = %v", got)
	}
	if got := maxDuration(7, 5); got != 7 {
		t.Errorf("maxDuration = %v", got)
	}
	if min(3, 4) != 3 || max(3, 4) != 4 {
		t.Errorf("min/max wrong")
	}
}

func TestSolverKindString(t *testing.T) {
	for k, want := range map[solverKind]string{
		originalGraph:  "Original Graph",
		singleVote:     "Single-Vote",
		multiVote:      "Multi-Vote",
		splitMerge:     "Split-Merge",
		solverKind(42): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestSgpModeSwitch(t *testing.T) {
	if (Config{}).sgpMode() != sgp.Reduced {
		t.Errorf("default should use the reduced solve")
	}
	if (Config{FullSolver: true}).sgpMode() != sgp.Full {
		t.Errorf("FullSolver should select the full solve")
	}
	if !Paper().FullSolver {
		t.Errorf("Paper() should use the full formulation")
	}
}
