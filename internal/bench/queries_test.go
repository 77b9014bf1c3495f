package bench

import "testing"

func TestQuerySuitesWellFormed(t *testing.T) {
	if len(XMarkQueries) != 17 || len(TreebankQueries) != 5 || len(MedlineQueries) != 11 || len(WordQueries) != 10 || len(PSSMQueries) != 9 {
		t.Fatal("query suite sizes must match the paper")
	}
}
