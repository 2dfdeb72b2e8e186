package harness

import (
	"testing"

	"kgvote/internal/core"
)

// The quarantine contract on a spam flood: the tracker sets adversarial
// votes aside, spares every honest voter, and is load-bearing — the same
// stream without it leaves the system measurably worse. StreamSingle,
// because at this size the off-ablation does not degrade under
// StreamMulti.
func TestAblationQuarantine(t *testing.T) {
	cfg := Config{Seed: 1, Docs: 16, TrainQuestions: 8, TestQuestions: 16}.withDefaults()
	f, err := newTaobaoFixture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spam := quarantineScenarios(cfg)[0]
	on, err := runScenarioPass(f, &spam, true, core.StreamSingle)
	if err != nil {
		t.Fatal(err)
	}
	off, err := runScenarioPass(f, &spam, false, core.StreamSingle)
	if err != nil {
		t.Fatal(err)
	}
	if on.quarantined == 0 {
		t.Error("spam flood was never quarantined")
	}
	if on.honestQuarantined != 0 {
		t.Errorf("%d honest voters quarantined", on.honestQuarantined)
	}
	if !(off.mrr < on.mrr || off.omegaAvg < on.omegaAvg) {
		t.Errorf("quarantine-off ablation did not degrade: on %+v, off %+v", on, off)
	}
}
