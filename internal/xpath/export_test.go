package xpath

// Hooks for the match-set tests in package xpath_test.
var (
	MatchSet      = matchSet
	ScanThreshold = scanThreshold
)
