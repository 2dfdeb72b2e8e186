package synth

import (
	"fmt"
	"math/rand"

	"kgvote/internal/graph"
	"kgvote/internal/qa"
	"kgvote/internal/vote"
)

// ScenarioKind names one adversarial (or benign) vote-workload family.
type ScenarioKind int

const (
	// Honest voters always pick the ground-truth best answer.
	Honest ScenarioKind = iota
	// Noisy voters are honest with a per-vote error probability — the
	// paper's human-error regime the judgment algorithm is built for.
	Noisy
	// SpamFlood is one voter casting a high volume of random votes over
	// random questions. Its self-contradictions (different "best" answers
	// for the same question) are what reputation scoring keys on.
	SpamFlood
	// ColludingRing is a small set of voters coordinating on the
	// strongest wrong answer of each targeted question, in waves; the
	// repeated identical votes mark them as ballot stuffers.
	ColludingRing
	// Contradictory voters alternate between the true best answer and a
	// fixed wrong one on the same queries — a confusion campaign rather
	// than straightforward promotion.
	Contradictory
	// Implicit derives low-weight votes from synthetic click/dwell
	// signals under a position-bias examination model: mostly helpful,
	// but skewed toward whatever is already ranked high.
	Implicit
)

func (k ScenarioKind) String() string {
	switch k {
	case Honest:
		return "honest"
	case Noisy:
		return "noisy"
	case SpamFlood:
		return "spam-flood"
	case ColludingRing:
		return "colluding-ring"
	case Contradictory:
		return "contradictory"
	case Implicit:
		return "implicit"
	}
	return fmt.Sprintf("scenario(%d)", int(k))
}

// Scenario is a composable vote-workload description. Zero-valued knobs
// take per-kind defaults, so Scenario{Kind: SpamFlood} is runnable.
type Scenario struct {
	Kind ScenarioKind
	// Name labels the voters ("<Name>-<i>") and the scenario in reports.
	// Defaults to Kind.String().
	Name string
	// Voters is the number of distinct voter identities (honest, noisy,
	// contradictory, implicit). SpamFlood always uses exactly one;
	// ColludingRing uses RingSize.
	Voters int
	// ErrorRate is the noisy voters' per-vote error probability.
	ErrorRate float64
	// Volume is the total votes a spam flood casts. Default 3×questions.
	Volume int
	// RingSize is the number of colluding voters. Default 4.
	RingSize int
	// Waves is how many times a ring or contradictory campaign sweeps its
	// target set. Default 2 (≥2 makes rings re-cast identical votes and
	// contradictory voters flip, which is what the tracker punishes).
	Waves int
	// TargetFraction is the share of questions a ring or contradictory
	// campaign touches. Default 0.5.
	TargetFraction float64
	// Weight is the vote weight for implicit click votes. Default 0.5.
	Weight float64
	// PositionBias is the per-position examination decay for implicit
	// votes: position i is examined with probability PositionBias^i.
	// Default 0.6.
	PositionBias float64
	Seed         int64
}

func (sc Scenario) withDefaults(questions int) Scenario {
	if sc.Name == "" {
		sc.Name = sc.Kind.String()
	}
	if sc.Voters <= 0 {
		sc.Voters = 5
	}
	if sc.Kind == Noisy && sc.ErrorRate == 0 {
		sc.ErrorRate = 0.25
	}
	if sc.Volume <= 0 {
		sc.Volume = 3 * questions
	}
	if sc.RingSize <= 0 {
		sc.RingSize = 4
	}
	if sc.Waves <= 0 {
		sc.Waves = 2
	}
	if sc.TargetFraction <= 0 || sc.TargetFraction > 1 {
		sc.TargetFraction = 0.5
	}
	if sc.Weight <= 0 {
		sc.Weight = 0.5
	}
	if sc.PositionBias <= 0 || sc.PositionBias >= 1 {
		sc.PositionBias = 0.6
	}
	return sc
}

// SimulateScenario generates the scenario's vote stream against the
// system. Every vote carries a voter identity derived from the scenario
// name, and every record keeps its Question so callers can key
// reputation tracking on the stable question ID.
func SimulateScenario(s *qa.System, questions []qa.Question, sc Scenario) ([]VoteRecord, error) {
	sc = sc.withDefaults(len(questions))
	switch sc.Kind {
	case Honest, Noisy:
		return SimulateVotes(s, questions, VoterConfig{
			ErrorRate:   sc.ErrorRate,
			Seed:        sc.Seed,
			Voters:      sc.Voters,
			VoterPrefix: sc.Name,
		})
	case SpamFlood:
		return simulateSpamFlood(s, questions, sc)
	case ColludingRing:
		return simulateColludingRing(s, questions, sc)
	case Contradictory:
		return simulateContradictory(s, questions, sc)
	case Implicit:
		return simulateImplicit(s, questions, sc)
	}
	return nil, fmt.Errorf("synth: unknown scenario kind %d", int(sc.Kind))
}

// trueRank resolves the ground-truth best document's current full-list
// rank for an attached query (0 when the question has no ground truth).
func trueRank(s *qa.System, qn graph.NodeID, q qa.Question) (int, error) {
	if q.BestDoc < 0 {
		return 0, nil
	}
	best, err := s.AnswerOf(q.BestDoc)
	if err != nil {
		return 0, err
	}
	return s.Engine.RankOf(qn, best, s.Answers())
}

func simulateSpamFlood(s *qa.System, questions []qa.Question, sc Scenario) ([]VoteRecord, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	voter := voterName(sc.Name, "spammer", 0)
	var out []VoteRecord
	for i := 0; i < sc.Volume; i++ {
		q := questions[rng.Intn(len(questions))]
		qn, ranked, err := s.Ask(q)
		if err != nil {
			return nil, fmt.Errorf("synth: %s: asking question %d: %w", sc.Name, q.ID, err)
		}
		if len(ranked) == 0 {
			continue
		}
		v, err := vote.FromRanking(qn, ranked, ranked[rng.Intn(len(ranked))])
		if err != nil {
			return nil, err
		}
		v.Voter = voter
		tr, err := trueRank(s, qn, q)
		if err != nil {
			return nil, err
		}
		out = append(out, VoteRecord{Question: q, Query: qn, Vote: v, TrueRank: tr})
	}
	return out, nil
}

// targetQuestions picks the deterministic subset of questions a campaign
// sweeps, excluding any whose ground truth already is the promoted doc.
func targetQuestions(questions []qa.Question, frac float64, excludeBestDoc int, rng *rand.Rand) []qa.Question {
	n := int(float64(len(questions)) * frac)
	if n < 1 {
		n = 1
	}
	perm := rng.Perm(len(questions))
	var out []qa.Question
	for _, idx := range perm {
		if len(out) >= n {
			break
		}
		q := questions[idx]
		if excludeBestDoc >= 0 && q.BestDoc == excludeBestDoc {
			continue
		}
		out = append(out, q)
	}
	return out
}

func simulateColludingRing(s *qa.System, questions []qa.Question, sc Scenario) ([]VoteRecord, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	// The ring needs ground truth to aim at its strongest rival.
	var eligible []qa.Question
	for _, q := range questions {
		if q.BestDoc >= 0 {
			eligible = append(eligible, q)
		}
	}
	targets := targetQuestions(eligible, sc.TargetFraction, -1, rng)
	var out []VoteRecord
	for wave := 0; wave < sc.Waves; wave++ {
		for _, q := range targets {
			best, err := s.AnswerOf(q.BestDoc)
			if err != nil {
				return nil, err
			}
			for member := 0; member < sc.RingSize; member++ {
				qn, ranked, err := s.Ask(q)
				if err != nil {
					return nil, fmt.Errorf("synth: %s: asking question %d: %w", sc.Name, q.ID, err)
				}
				// Every member backs the strongest wrong answer: a positive
				// vote cementing a wrong frontrunner, or a negative vote
				// promoting the runner-up over the true answer — exactly
				// opposing what honest repair votes try to do.
				chosen := graph.None
				for _, a := range ranked {
					if a != best {
						chosen = a
						break
					}
				}
				if chosen == graph.None {
					continue // singleton list holding only the true answer
				}
				v, err := vote.FromRanking(qn, ranked, chosen)
				if err != nil {
					return nil, err
				}
				v.Voter = voterName(sc.Name, "ring", member)
				tr, err := trueRank(s, qn, q)
				if err != nil {
					return nil, err
				}
				out = append(out, VoteRecord{Question: q, Query: qn, Vote: v, TrueRank: tr})
			}
		}
	}
	return out, nil
}

func simulateContradictory(s *qa.System, questions []qa.Question, sc Scenario) ([]VoteRecord, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	targets := targetQuestions(questions, sc.TargetFraction, -1, rng)
	var out []VoteRecord
	for wave := 0; wave < sc.Waves; wave++ {
		for _, q := range targets {
			if q.BestDoc < 0 {
				continue
			}
			best, err := s.AnswerOf(q.BestDoc)
			if err != nil {
				return nil, err
			}
			for voter := 0; voter < sc.Voters; voter++ {
				qn, ranked, err := s.Ask(q)
				if err != nil {
					return nil, fmt.Errorf("synth: %s: asking question %d: %w", sc.Name, q.ID, err)
				}
				chosen := best
				if (wave+voter)%2 == 1 {
					// The opposing half of the campaign: back some other
					// ranked answer instead of the ground truth.
					chosen = graph.NodeID(-1)
					for _, a := range ranked {
						if a != best {
							chosen = a
							break
						}
					}
				}
				if chosen == graph.NodeID(-1) || !containsNode(ranked, chosen) {
					continue
				}
				v, err := vote.FromRanking(qn, ranked, chosen)
				if err != nil {
					return nil, err
				}
				v.Voter = voterName(sc.Name, "flip", voter)
				tr, err := trueRank(s, qn, q)
				if err != nil {
					return nil, err
				}
				out = append(out, VoteRecord{Question: q, Query: qn, Vote: v, TrueRank: tr})
			}
		}
	}
	return out, nil
}

func simulateImplicit(s *qa.System, questions []qa.Question, sc Scenario) ([]VoteRecord, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	var out []VoteRecord
	for i, q := range questions {
		if q.BestDoc < 0 {
			continue
		}
		qn, ranked, err := s.Ask(q)
		if err != nil {
			return nil, fmt.Errorf("synth: %s: asking question %d: %w", sc.Name, q.ID, err)
		}
		best, err := s.AnswerOf(q.BestDoc)
		if err != nil {
			return nil, err
		}
		// Cascade click model: the user scans top-down, examines position
		// p with probability PositionBias^p, and clicks an examined result
		// with high probability when it is the true answer and low
		// probability otherwise. The first click wins; dwell confidence is
		// folded into the (sub-unit) vote weight.
		chosen := graph.NodeID(-1)
		examine := 1.0
		for _, a := range ranked {
			if rng.Float64() < examine {
				click := 0.15
				if a == best {
					click = 0.85
				}
				if rng.Float64() < click {
					chosen = a
					break
				}
			}
			examine *= sc.PositionBias
		}
		if chosen == graph.NodeID(-1) {
			continue // abandoned session: no implicit signal
		}
		v, err := vote.FromRanking(qn, ranked, chosen)
		if err != nil {
			return nil, err
		}
		v.Weight = sc.Weight
		v.Voter = voterName(sc.Name, "implicit", i%sc.Voters)
		tr, err := trueRank(s, qn, q)
		if err != nil {
			return nil, err
		}
		out = append(out, VoteRecord{Question: q, Query: qn, Vote: v, TrueRank: tr})
	}
	return out, nil
}

func containsNode(list []graph.NodeID, n graph.NodeID) bool {
	for _, a := range list {
		if a == n {
			return true
		}
	}
	return false
}
