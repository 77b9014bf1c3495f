// Package automata implements the alternating marking tree automata of
// Section 5: hash-consed Boolean formulas over down-moves (Definition 5.1),
// transitions guarded by finite or co-finite label sets, the TopDownRun
// evaluation with jumping to relevant nodes (Section 5.4.1), just-in-time
// memoization of transition computations (Section 5.5.2), counting mode and
// lazy result sets (Sections 5.5.3, 5.5.4), and early evaluation of
// formulas (Section 5.5.5).
package automata

import "fmt"

// FKind enumerates formula constructors (Definition 5.1).
type FKind uint8

const (
	FTrue FKind = iota
	FFalse
	FMark
	FDown1 // ↓1 q
	FDown2 // ↓2 q
	FAnd
	FOr
	FNot
	FPred // built-in predicate evaluated on the current node
)

// Formula is a hash-consed Boolean formula node. Structurally equal
// formulas share the same pointer and ID (Section 5.5.1), so equality is
// pointer comparison and IDs key memoization tables.
type Formula struct {
	ID      int
	Kind    FKind
	Q       int      // state for FDown1/FDown2
	L, R    *Formula // children for FAnd/FOr; L for FNot
	PredID  int      // index into the factory's predicate table for FPred
	hasMark bool     // whether a mark can appear in this formula's value
}

// PredFunc evaluates a built-in predicate at a document node.
type PredFunc func(node int) bool

// Factory hash-conses formulas and registers predicates.
type Factory struct {
	byKey map[fkey]*Formula
	all   []*Formula
	preds []PredFunc
	names []string // predicate descriptions for debugging

	True, False, Mark *Formula
}

type fkey struct {
	kind   FKind
	q      int32
	l, r   int32
	predID int32
}

// NewFactory creates an empty formula factory.
func NewFactory() *Factory {
	f := &Factory{byKey: map[fkey]*Formula{}}
	f.True = f.intern(&Formula{Kind: FTrue})
	f.False = f.intern(&Formula{Kind: FFalse})
	f.Mark = f.intern(&Formula{Kind: FMark, hasMark: true})
	return f
}

func (f *Factory) intern(phi *Formula) *Formula {
	k := fkey{kind: phi.Kind, q: int32(phi.Q), l: -1, r: -1, predID: int32(phi.PredID)}
	if phi.L != nil {
		k.l = int32(phi.L.ID)
	}
	if phi.R != nil {
		k.r = int32(phi.R.ID)
	}
	if existing, ok := f.byKey[k]; ok {
		return existing
	}
	phi.ID = len(f.all)
	f.all = append(f.all, phi)
	f.byKey[k] = phi
	return phi
}

// Down1 returns ↓1 q.
func (f *Factory) Down1(q int) *Formula { return f.intern(&Formula{Kind: FDown1, Q: q}) }

// Down2 returns ↓2 q.
func (f *Factory) Down2(q int) *Formula { return f.intern(&Formula{Kind: FDown2, Q: q}) }

// And returns the conjunction, with light simplification that never
// discards marks.
func (f *Factory) And(a, b *Formula) *Formula {
	if a.Kind == FFalse || b.Kind == FFalse {
		return f.False
	}
	if a.Kind == FTrue {
		return b
	}
	if b.Kind == FTrue {
		return a
	}
	return f.intern(&Formula{Kind: FAnd, L: a, R: b, hasMark: a.hasMark || b.hasMark})
}

// Or returns the disjunction; True absorbs only mark-free operands.
func (f *Factory) Or(a, b *Formula) *Formula {
	if a.Kind == FFalse {
		return b
	}
	if b.Kind == FFalse {
		return a
	}
	if a.Kind == FTrue && !b.hasMark {
		return f.True
	}
	if b.Kind == FTrue && !a.hasMark {
		return f.True
	}
	return f.intern(&Formula{Kind: FOr, L: a, R: b, hasMark: a.hasMark || b.hasMark})
}

// Not returns the negation; marks below a negation are discarded by the
// evaluation rules (Figure 4), so hasMark is false.
func (f *Factory) Not(a *Formula) *Formula {
	switch a.Kind {
	case FTrue:
		return f.False
	case FFalse:
		return f.True
	case FNot:
		return a.L
	}
	return f.intern(&Formula{Kind: FNot, L: a})
}

// Pred registers fn and returns its predicate formula.
func (f *Factory) Pred(name string, fn PredFunc) *Formula {
	id := len(f.preds)
	f.preds = append(f.preds, fn)
	f.names = append(f.names, name)
	return f.intern(&Formula{Kind: FPred, PredID: id})
}

// downStates accumulates the states referenced by ↓1 (into q1) and ↓2
// (into q2) anywhere in the formula, including under negation. It reports
// whether the formula contains a predicate atom.
func (phi *Formula) downStates(q1, q2 *uint64) (pred bool) {
	switch phi.Kind {
	case FDown1:
		*q1 |= 1 << uint(phi.Q)
	case FDown2:
		*q2 |= 1 << uint(phi.Q)
	case FAnd, FOr:
		l := phi.L.downStates(q1, q2)
		return phi.R.downStates(q1, q2) || l
	case FNot:
		return phi.L.downStates(q1, q2)
	case FPred:
		return true
	}
	return false
}

func (phi *Formula) String() string {
	switch phi.Kind {
	case FTrue:
		return "⊤"
	case FFalse:
		return "⊥"
	case FMark:
		return "mark"
	case FDown1:
		return fmt.Sprintf("↓1 q%d", phi.Q)
	case FDown2:
		return fmt.Sprintf("↓2 q%d", phi.Q)
	case FAnd:
		return "(" + phi.L.String() + " ∧ " + phi.R.String() + ")"
	case FOr:
		return "(" + phi.L.String() + " ∨ " + phi.R.String() + ")"
	case FNot:
		return "¬" + phi.L.String()
	case FPred:
		return fmt.Sprintf("p%d", phi.PredID)
	}
	return "?"
}
