package automata

import (
	"fmt"
	"math/bits"
	"slices"
)

// OutcomeCheck counts what CheckOutcomes found in an evaluator's tables.
type OutcomeCheck struct {
	Instrs int // instructions built
	Stored int // outcomes stored
	Pred   int // instructions with a predicate atom
	Wide   int // instructions whose key would read more than maxOutcomeBits states
}

// MaxOutcomeBits exports the key width bound.
const MaxOutcomeBits = maxOutcomeBits

// CheckOutcomes verifies ev's instructions: the key lists exactly the
// down-states of the selected formulas, every stored outcome equals the
// one built afresh from its key alone, and an instruction with a predicate
// atom or a key wider than maxOutcomeBits stores nothing.
func CheckOutcomes(ev *Evaluator) (OutcomeCheck, error) {
	var c OutcomeCheck
	for _, s := range ev.sets {
		for tag, in := range s.instrs {
			if in == nil {
				continue
			}
			c.Instrs++
			var q1, q2 uint64
			pred := false
			for _, p := range in.pairs {
				pred = p.phi.downStates(&q1, &q2) || pred
			}
			if ev.sets[in.q1].mask != q1 || ev.sets[in.q2].mask != q2 {
				return c, fmt.Errorf("set %b tag %d: down-state ids name %b/%b, formulas read %b/%b",
					s.mask, tag, ev.sets[in.q1].mask, ev.sets[in.q2].mask, q1, q2)
			}
			wide := bits.OnesCount64(q1)+bits.OnesCount64(q2) > maxOutcomeBits
			if pred {
				c.Pred++
			}
			if wide {
				c.Wide++
			}
			t := in.table
			if pred || wide {
				if t != nil {
					return c, fmt.Errorf("set %b tag %d: pred %v wide %v, yet it stores outcomes", s.mask, tag, pred, wide)
				}
				continue
			}
			if t == nil || maskOf(t.down[:t.n1]) != q1 || maskOf(t.down[t.n1:t.n1+t.n2]) != q2 {
				return c, fmt.Errorf("set %b tag %d: key states %+v, want %b then %b", s.mask, tag, t, q1, q2)
			}
			for phase, tab := range t.byPhase {
				for k, got := range tab {
					if got == nil {
						continue
					}
					c.Stored++
					var r1, r2 *runRes
					if phase >= 1 {
						r1 = &runRes{sat: satOf(k, t.down[:t.n1])}
					}
					if phase == 2 {
						r2 = &runRes{sat: satOf(k>>t.n1, t.down[t.n1:t.n1+t.n2])}
					}
					var want outcome
					ev.buildOutcome(in, -1, r1, r2, &want)
					if got.resolved != want.resolved || got.sat != want.sat || !slices.Equal(got.ops, want.ops) {
						return c, fmt.Errorf("set %b tag %d phase %d key %b: stored %+v, rebuilt %+v",
							s.mask, tag, phase, k, *got, want)
					}
				}
			}
		}
	}
	return c, nil
}

func maskOf(states []uint8) uint64 {
	var m uint64
	for _, q := range states {
		m |= 1 << q
	}
	return m
}

// satOf spreads key bits over the states they stand for.
func satOf(k int, states []uint8) uint64 {
	var sat uint64
	for i, q := range states {
		sat |= uint64(k>>i&1) << q
	}
	return sat
}
