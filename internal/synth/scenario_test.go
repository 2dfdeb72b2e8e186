package synth

import (
	"strings"
	"testing"

	"kgvote/internal/core"
	"kgvote/internal/qa"
)

func scenarioFixture(t *testing.T) (*qa.System, []qa.Question) {
	t.Helper()
	c, err := GenerateCorpus(CorpusConfig{Topics: 4, EntitiesPer: 10, Docs: 40, EntitiesPerDoc: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := qa.Build(c, core.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := GenerateQuestions(c, QuestionConfig{N: 30, EntitiesPer: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s, qs
}

func TestSimulateScenarioSpamFlood(t *testing.T) {
	s, qs := scenarioFixture(t)
	recs, err := SimulateScenario(s, qs, Scenario{Kind: SpamFlood, Volume: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("spam flood produced no votes")
	}
	voters := map[string]bool{}
	contradictions := 0
	bestByQuestion := map[int]map[int32]bool{}
	for _, r := range recs {
		if err := r.Vote.Validate(); err != nil {
			t.Fatalf("spam vote invalid: %v", err)
		}
		voters[r.Vote.Voter] = true
		seen := bestByQuestion[r.Question.ID]
		if seen == nil {
			seen = map[int32]bool{}
			bestByQuestion[r.Question.ID] = seen
		}
		seen[int32(r.Vote.Best)] = true
		if len(seen) > 1 {
			contradictions++
		}
	}
	if len(voters) != 1 {
		t.Errorf("spam flood used %d voters, want exactly 1", len(voters))
	}
	if !voters["spam-flood-0"] {
		t.Errorf("unexpected voter set %v", voters)
	}
	if contradictions == 0 {
		t.Error("spam flood never contradicted itself — reputation has nothing to key on")
	}
}

func TestSimulateScenarioColludingRing(t *testing.T) {
	s, qs := scenarioFixture(t)
	recs, err := SimulateScenario(s, qs, Scenario{Kind: ColludingRing, RingSize: 3, Waves: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("ring produced no votes")
	}
	voters := map[string]bool{}
	duplicates := 0
	type key struct {
		voter string
		qid   int
	}
	seen := map[key]int{}
	for _, r := range recs {
		if err := r.Vote.Validate(); err != nil {
			t.Fatalf("ring vote invalid: %v", err)
		}
		voters[r.Vote.Voter] = true
		best, err := s.AnswerOf(r.Question.BestDoc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Vote.Best == best {
			t.Fatalf("ring vote backs the true answer for question %d", r.Question.ID)
		}
		k := key{r.Vote.Voter, r.Question.ID}
		seen[k]++
		if seen[k] > 1 {
			duplicates++
		}
	}
	if len(voters) != 3 {
		t.Errorf("ring used %d voters, want 3", len(voters))
	}
	if duplicates == 0 {
		t.Error("two waves produced no repeated voter/question votes")
	}
}

func TestSimulateScenarioContradictory(t *testing.T) {
	s, qs := scenarioFixture(t)
	recs, err := SimulateScenario(s, qs, Scenario{Kind: Contradictory, Voters: 2, Waves: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("contradictory campaign produced no votes")
	}
	type key struct {
		voter string
		qid   int
	}
	bests := map[key]map[int32]bool{}
	for _, r := range recs {
		if err := r.Vote.Validate(); err != nil {
			t.Fatalf("contradictory vote invalid: %v", err)
		}
		k := key{r.Vote.Voter, r.Question.ID}
		if bests[k] == nil {
			bests[k] = map[int32]bool{}
		}
		bests[k][int32(r.Vote.Best)] = true
	}
	flipped := 0
	for _, b := range bests {
		if len(b) > 1 {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("no voter ever flipped its best answer on a repeated query")
	}
}

func TestSimulateScenarioImplicit(t *testing.T) {
	s, qs := scenarioFixture(t)
	recs, err := SimulateScenario(s, qs, Scenario{Kind: Implicit, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("implicit scenario produced no votes")
	}
	correct := 0
	for _, r := range recs {
		if err := r.Vote.Validate(); err != nil {
			t.Fatalf("implicit vote invalid: %v", err)
		}
		if r.Vote.Weight != 0.5 {
			t.Fatalf("implicit vote weight = %v, want 0.5", r.Vote.Weight)
		}
		if !strings.HasPrefix(r.Vote.Voter, "implicit-") {
			t.Fatalf("unexpected voter %q", r.Vote.Voter)
		}
		best, err := s.AnswerOf(r.Question.BestDoc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Vote.Best == best {
			correct++
		}
	}
	// The click model is noisy but must remain mostly helpful.
	if correct*2 <= len(recs) {
		t.Errorf("implicit clicks found the true answer only %d/%d times", correct, len(recs))
	}
}

func TestSimulateScenarioHonestDelegates(t *testing.T) {
	s, qs := scenarioFixture(t)
	recs, err := SimulateScenario(s, qs, Scenario{Kind: Honest, Voters: 4, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SimulateVotes(s, qs, VoterConfig{Seed: 15, Voters: 4, VoterPrefix: "honest"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("honest scenario %d votes, SimulateVotes %d", len(recs), len(want))
	}
	for i := range recs {
		if recs[i].Vote.Voter != want[i].Vote.Voter || recs[i].Vote.Kind != want[i].Vote.Kind {
			t.Fatalf("vote %d diverges from SimulateVotes", i)
		}
	}
}
