// Package kgvote optimizes knowledge-graph edge weights through
// voting-based user feedback, reproducing Yang, Lin, Xu, Yang & He,
// "Optimizing Knowledge Graphs through Voting-based User Feedback"
// (ICDE 2020).
//
// The typical flow:
//
//	g := kgvote.NewGraph()
//	// ... add entity nodes and weighted edges ...
//	kg := kgvote.Augment(g)
//	// ... attach answer nodes and query nodes ...
//	eng, _ := kgvote.NewEngine(g, kgvote.DefaultOptions())
//	ranked, _ := eng.Rank(query, answers)
//	v, _ := eng.CollectVote(query, answers, userChoice)
//	eng.SolveMulti([]kgvote.Vote{v}) // re-weight the graph
//
// The facade re-exports the stable surface of the internal packages:
// graph storage (internal/graph), similarity evaluation via the extended
// inverse P-distance (internal/pathidx), the SGP-based optimization engine
// (internal/core), and the vote model (internal/vote). Lower-level pieces
// (the signomial algebra, the augmented-Lagrangian solver, affinity
// propagation) stay internal.
package kgvote

import (
	"kgvote/internal/core"
	"kgvote/internal/graph"
	"kgvote/internal/pathidx"
	"kgvote/internal/qa"
	"kgvote/internal/vote"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Graph is a weighted directed knowledge graph.
	Graph = graph.Graph
	// NodeID identifies a node inside one Graph.
	NodeID = graph.NodeID
	// EdgeKey identifies a directed edge by endpoints.
	EdgeKey = graph.EdgeKey
	// Augmented is a knowledge graph with query and answer nodes attached.
	Augmented = graph.Augmented
	// Engine optimizes a knowledge graph from user votes.
	Engine = core.Engine
	// Options configures an Engine; zero fields take the paper defaults.
	Options = core.Options
	// Report summarizes one optimization run.
	Report = core.Report
	// Vote is one unit of user feedback on a ranked answer list.
	Vote = vote.Vote
	// Ranked is one entry of a ranked answer list.
	Ranked = pathidx.Ranked
	// Explanation decomposes one similarity score into its walks.
	Explanation = core.Explanation
	// PathContribution is one walk's share of a similarity score.
	PathContribution = core.PathContribution

	// Corpus, Document, and Question model a Q&A document collection for
	// the question-answering substrate.
	Corpus = qa.Corpus
	// Document is one answer document with entity counts.
	Document = qa.Document
	// Question is one user question with optional ground truth.
	Question = qa.Question
	// QASystem is an assembled Q&A system over a corpus.
	QASystem = qa.System

	// Stream processes votes online in batches.
	Stream = core.Stream
	// StreamSolver selects the batch solver a Stream applies.
	StreamSolver = core.StreamSolver
	// WeightSnapshot captures edge weights for rollback.
	WeightSnapshot = core.WeightSnapshot
)

// Stream batch solvers.
const (
	// StreamMulti applies the multi-vote solution per batch.
	StreamMulti = core.StreamMulti
	// StreamSplitMerge applies split-and-merge per batch.
	StreamSplitMerge = core.StreamSplitMerge
	// StreamSingle applies the single-vote solution per batch.
	StreamSingle = core.StreamSingle
)

// Vote kinds.
const (
	// Negative marks a vote whose best answer is not ranked first.
	Negative = vote.Negative
	// Positive confirms the top-ranked answer.
	Positive = vote.Positive
)

// None is the invalid NodeID.
const None = graph.None

// NewGraph returns an empty graph with a capacity hint.
func NewGraph() *Graph { return graph.New(0) }

// NewGraphWithCapacity returns an empty graph pre-sized for n nodes.
func NewGraphWithCapacity(n int) *Graph { return graph.New(n) }

// Augment wraps a graph for query/answer node attachment.
func Augment(g *Graph) *Augmented { return graph.Augment(g) }

// DefaultOptions returns the paper's parameter settings (c = 0.15, L = 5,
// k = 20, λ₁ = λ₂ = 0.5, w = 300).
func DefaultOptions() Options { return core.Defaults() }

// NewEngine returns an optimization engine over g. The engine mutates g
// in place as votes are applied; clone first to preserve the original.
// From then on change weights only through the engine (see core.Engine).
func NewEngine(g *Graph, opt Options) (*Engine, error) { return core.New(g, opt) }

// NewVote builds a vote from a ranked list and the user's best choice,
// inferring positive/negative from the choice's position.
func NewVote(query NodeID, ranked []NodeID, best NodeID) (Vote, error) {
	return vote.FromRanking(query, ranked, best)
}

// BuildQA assembles a Q&A system (co-occurrence knowledge graph + answer
// nodes + engine) from a document corpus.
func BuildQA(c *Corpus, opt Options) (*QASystem, error) { return qa.Build(c, opt) }

// ExtractEntities tokenizes text and keeps entities in the vocabulary,
// counting occurrences.
func ExtractEntities(text string, vocabulary map[string]bool) map[string]int {
	return qa.ExtractEntities(text, vocabulary)
}
