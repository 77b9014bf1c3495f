package xpath

import "repro/internal/xmltree"

// Hooks for the match-set tests in package xpath_test.
var ScanThreshold = scanThreshold

// MatchSet returns the ids of matchSet's set in increasing order.
func MatchSet(d *xmltree.Doc, opts Options, op TextOp, fn, lit string) []int32 {
	set, n := matchSet(d, opts, op, fn, lit), d.NumTexts()
	var out []int32
	for id := set.First(0, n); id >= 0; id = set.First(id+1, n) {
		out = append(out, int32(id))
	}
	return out
}
