package xpath

import (
	"fmt"

	"repro/internal/xmltree"
)

// Cost-based strategy selection (the trade-off at the heart of the paper:
// Section 5.4.2 and Figure 14). The planner chooses between the top-down
// marking automaton and the bottom-up climb from text-index matches using
// cheap *exact* statistics, not sampled estimates:
//
//   - the per-tag occurrence count of the last step's node test, read from
//     the tag sequence's rank directories in O(1) (Doc.TagCount). The
//     jumping top-down run visits at most the occurrences of the relevant
//     tags, so this bounds the candidate set the automaton must touch.
//
//   - the text-predicate match count. For a single-text target it is one
//     FM-index backward search in O(|pattern|) (GlobalCount and friends);
//     for contains(., p) on a multi-text target it is the exact number of
//     occurrence spans, from the one plain-store pass that also serves the
//     evaluation (spans.go). The bottom-up run climbs from exactly these
//     matches, so this bounds its work.
//
// Both numbers are exact for the document at hand — the cost model never
// guesses. The decision rule is the paper's selectivity rule: run bottom-up
// exactly when the text predicate selects no more matches than the last
// step's tag has occurrences. QueryOptions.ForceStrategy overrides the
// decision for benchmarking and differential testing.

// Strategy names an evaluation strategy for the main (downward) path.
type Strategy uint8

const (
	// StrategyAuto lets the cost model decide (the default).
	StrategyAuto Strategy = iota
	// StrategyTopDown forces the top-down marking automaton.
	StrategyTopDown
	// StrategyBottomUp forces the bottom-up plan whenever the query shape
	// supports it; ineligible queries still run top-down.
	StrategyBottomUp
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyTopDown:
		return "top-down"
	case StrategyBottomUp:
		return "bottom-up"
	}
	return fmt.Sprintf("strategy(%d)", s)
}

// ParseStrategy resolves the wire/CLI names of the strategies.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "auto", "":
		return StrategyAuto, nil
	case "top-down", "topdown", "td":
		return StrategyTopDown, nil
	case "bottom-up", "bottomup", "bu":
		return StrategyBottomUp, nil
	}
	return 0, fmt.Errorf("xpath: unknown strategy %q", s)
}

// CostEstimate records the statistics the planner consulted and the strategy
// it chose for a compiled query. All counts are exact (see the package
// comment above); TextMatches is -1 when the query has no text predicate the
// bottom-up plan could drive from.
type CostEstimate struct {
	// LastStepCount is the number of document nodes matching the last
	// step's node test: the top-down run's candidate bound.
	LastStepCount int
	// TextMatches is the text-predicate match count, either from one FM
	// backward search or the exact occurrence-span count of a contains on
	// a multi-text target: the bottom-up run's work bound. -1 when not
	// applicable.
	TextMatches int
	// BottomUpOK reports whether the query shape supports the bottom-up
	// plan at all (downward path, one trailing indexable text predicate).
	BottomUpOK bool
	// Forced reports that ForceStrategy overrode the cost comparison.
	Forced bool
	// Chosen is the strategy the query will run under.
	Chosen Strategy
}

func (c CostEstimate) String() string {
	return fmt.Sprintf("cost{last=%d text=%d bu=%v forced=%v chosen=%s}",
		c.LastStepCount, c.TextMatches, c.BottomUpOK, c.Forced, c.Chosen)
}

// lastStepCount bounds the candidate set of the last step: the exact tag
// occurrence count for named tests (0 when the tag does not occur), the
// text-leaf count for text() tests, and the node count otherwise.
func lastStepCount(doc *xmltree.Doc, t NodeTest) int {
	switch t.Kind {
	case TestName:
		if id := doc.TagID(t.Name); id >= 0 {
			return doc.TagCount(id)
		}
		return 0
	case TestText:
		return doc.NumTexts()
	}
	return doc.NumNodes()
}

// chooseStrategy applies the decision rule to a (possibly nil) eligible
// bottom-up plan. The plan argument carries the shape eligibility: a nil
// plan means the query cannot run bottom-up regardless of cost.
func chooseStrategy(doc *xmltree.Doc, path *Path, opts Options, plan *buPlan) CostEstimate {
	est := CostEstimate{
		LastStepCount: lastStepCount(doc, path.Steps[len(path.Steps)-1].Test),
		TextMatches:   -1,
		BottomUpOK:    plan != nil,
		Chosen:        StrategyTopDown,
	}
	if opts.ForceStrategy == StrategyTopDown {
		est.Forced = true
		return est
	}
	if plan == nil {
		// Forcing bottom-up on an ineligible shape still runs top-down;
		// record the override so Cost() callers can see it was requested.
		est.Forced = opts.ForceStrategy == StrategyBottomUp
		return est
	}
	est.TextMatches = plan.textMatches()
	if opts.ForceStrategy == StrategyBottomUp {
		est.Forced = true
		est.Chosen = StrategyBottomUp
		return est
	}
	// Selectivity rule (Section 5.4.2): climb from the text matches only
	// when there are no more of them than last-step candidates.
	if est.TextMatches <= est.LastStepCount {
		est.Chosen = StrategyBottomUp
	}
	return est
}
