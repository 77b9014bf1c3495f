package oracle

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/xpath"
)

// StrategyTally collects the cost model's per-query decisions across a
// differential run, so the harness can both report the strategy mix and
// assert that a suite actually exercised every evaluation path (a suite
// where the cost model never picks bottom-up is not testing bottom-up).
// Safe for concurrent use.
type StrategyTally struct {
	mu     sync.Mutex
	counts map[xpath.Strategy]int
}

// Record notes one compiled query's decision.
func (t *StrategyTally) Record(c xpath.CostEstimate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counts == nil {
		t.counts = map[xpath.Strategy]int{}
	}
	t.counts[c.Chosen]++
}

// Count returns how many recorded queries chose the given strategy.
func (t *StrategyTally) Count(s xpath.Strategy) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[s]
}

// String summarizes the tally as "strategy=count" pairs, sorted by name.
func (t *StrategyTally) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]xpath.Strategy, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, t.counts[k])
	}
	return s
}
