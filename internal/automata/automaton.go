package automata

import (
	"fmt"
	"strings"
)

// LabelSet is a finite or co-finite set of tag identifiers (Definition 5.1).
// Co-finite sets encode wildcard tests such as "*" without fixing the
// document alphabet in advance.
type LabelSet struct {
	Cofinite bool
	Tags     []int32 // members (finite) or excluded members (cofinite)
}

// AllLabels is the co-finite set L.
var AllLabels = LabelSet{Cofinite: true}

// Finite builds a finite label set.
func Finite(tags ...int32) LabelSet { return LabelSet{Tags: tags} }

// AllBut builds the co-finite complement of the given tags.
func AllBut(tags ...int32) LabelSet { return LabelSet{Cofinite: true, Tags: tags} }

// Contains reports membership of tag.
func (s LabelSet) Contains(tag int32) bool {
	for _, t := range s.Tags {
		if t == tag {
			return !s.Cofinite
		}
	}
	return s.Cofinite
}

// Transition is one guarded transition q, L -> phi.
type Transition struct {
	Guard LabelSet
	Phi   *Formula
}

// LoopKind classifies a state's neutral self-recursion, which drives the
// jumpability analysis of Section 5.4.1.
type LoopKind uint8

const (
	LoopNone  LoopKind = iota
	LoopConj           // ↓1 q ∧ ↓2 q  (marking path states; members of B)
	LoopDisj           // ↓1 q ∨ ↓2 q  (descendant existence filters)
	LoopRight          // ↓2 q          (child axis scan; not jumpable)
)

// Automaton is a non-deterministic marking automaton bound to a document's
// tag alphabet (Definition 5.1). States are small integers < 64.
type Automaton struct {
	NumStates int
	Start     int
	Bottom    uint64 // B: states satisfiable at Nil
	Trans     [][]Transition
	Factory   *Factory

	// Derived data (computed by Finish):
	canMark uint64     // states from which a mark is reachable
	loop    []LoopKind // neutral loop classification per state
	// trigger transitions per state: the non-loop ones; nil Tags means the
	// state has a cofinite (unjumpable) trigger.
	trigTags    [][]int32
	trigCofin   []bool
	collectible uint64 // states whose triggers only mark (lazy result sets)
	// transparent: states whose recursion is level-agnostic (conjunctive or
	// disjunctive loops); they survive the "level pops" a flattened-region
	// traversal encounters after a jump, while chain-scanning states end
	// their run there (see Evaluator.run).
	transparent uint64
}

// MaxStates bounds the state space so state sets fit one machine word.
const MaxStates = 64

// NewAutomaton allocates an automaton with n states.
func NewAutomaton(n int, factory *Factory) (*Automaton, error) {
	if n > MaxStates {
		return nil, fmt.Errorf("automata: query needs %d states, max %d", n, MaxStates)
	}
	return &Automaton{NumStates: n, Trans: make([][]Transition, n), Factory: factory}, nil
}

// AddTransition appends q, guard -> phi.
func (a *Automaton) AddTransition(q int, guard LabelSet, phi *Formula) {
	a.Trans[q] = append(a.Trans[q], Transition{Guard: guard, Phi: phi})
}

// SetBottom marks q as a bottom state (satisfiable at Nil).
func (a *Automaton) SetBottom(q int) { a.Bottom |= 1 << uint(q) }

// Finish computes the derived tables. Must be called after all transitions
// are added and before evaluation.
func (a *Automaton) Finish() {
	a.computeCanMark()
	a.classifyLoops()
}

func (a *Automaton) computeCanMark() {
	// Fixpoint: q can mark if any of its formulas contains mark directly or
	// references a can-marking state.
	direct := func(phi *Formula, cm uint64) bool {
		var walk func(*Formula) bool
		walk = func(p *Formula) bool {
			switch p.Kind {
			case FMark:
				return true
			case FDown1, FDown2:
				return cm>>uint(p.Q)&1 == 1
			case FAnd, FOr:
				return walk(p.L) || walk(p.R)
			case FNot:
				return false // marks under negation are discarded
			}
			return false
		}
		return walk(phi)
	}
	cm := uint64(0)
	for changed := true; changed; {
		changed = false
		for q := 0; q < a.NumStates; q++ {
			if cm>>uint(q)&1 == 1 {
				continue
			}
			for _, t := range a.Trans[q] {
				if direct(t.Phi, cm) {
					cm |= 1 << uint(q)
					changed = true
					break
				}
			}
		}
	}
	a.canMark = cm
}

func (a *Automaton) classifyLoops() {
	f := a.Factory
	a.loop = make([]LoopKind, a.NumStates)
	a.trigTags = make([][]int32, a.NumStates)
	a.trigCofin = make([]bool, a.NumStates)
	for q := 0; q < a.NumStates; q++ {
		conj := f.And(f.Down1(q), f.Down2(q))
		disj := f.Or(f.Down1(q), f.Down2(q))
		right := f.Down2(q)
		kind := LoopNone
		var trig []int32
		cofin := false
		var neutralGuards []LabelSet
		for _, t := range a.Trans[q] {
			switch t.Phi {
			case conj:
				kind = LoopConj
				neutralGuards = append(neutralGuards, t.Guard)
			case disj:
				kind = LoopDisj
				neutralGuards = append(neutralGuards, t.Guard)
			case right:
				kind = LoopRight
				neutralGuards = append(neutralGuards, t.Guard)
			default:
				if t.Guard.Cofinite {
					cofin = true
				} else {
					trig = append(trig, t.Guard.Tags...)
				}
			}
		}
		// Level-pop transparency only depends on the recursion shape.
		switch kind {
		case LoopConj, LoopDisj:
			a.transparent |= 1 << uint(q)
		}
		// Jumpability additionally requires a neutral transition covering
		// L minus the triggers: either a full guard, or a co-finite guard
		// whose exclusions are all triggers.
		if kind != LoopNone && !cofin {
			covered := false
			for _, g := range neutralGuards {
				if !g.Cofinite {
					continue
				}
				ok := true
				for _, excluded := range g.Tags {
					found := false
					for _, tr := range trig {
						if tr == excluded {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if ok {
					covered = true
					break
				}
			}
			if !covered {
				kind = LoopNone
			}
		}
		a.loop[q] = kind
		a.trigTags[q] = trig
		a.trigCofin[q] = cofin
	}
	// Collector states (Section 5.5.4, lazy result sets / SubtreeTags
	// counting): a conjunctive-loop state whose every trigger transition is
	// exactly "mark and keep recursing" — the shape of an unfiltered final
	// descendant step.
	for q := 0; q < a.NumStates; q++ {
		if a.loop[q] != LoopConj {
			continue
		}
		conj := f.And(f.Down1(q), f.Down2(q))
		markAll := f.And(f.Mark, conj)
		ok := true
		for _, t := range a.Trans[q] {
			if t.Phi == conj || t.Phi == markAll || t.Phi == f.Mark {
				continue
			}
			ok = false
			break
		}
		if ok {
			a.collectible |= 1 << uint(q)
		}
	}
}

// String renders the transition table (for debugging and tests).
func (a *Automaton) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "automaton[states=%d start=q%d B=%b]\n", a.NumStates, a.Start, a.Bottom)
	for q := 0; q < a.NumStates; q++ {
		for _, t := range a.Trans[q] {
			guard := "L"
			if !t.Guard.Cofinite {
				guard = fmt.Sprint(t.Guard.Tags)
			} else if len(t.Guard.Tags) > 0 {
				guard = fmt.Sprintf("L-%v", t.Guard.Tags)
			}
			fmt.Fprintf(&sb, "  q%d, %s -> %s\n", q, guard, t.Phi)
		}
	}
	return sb.String()
}
