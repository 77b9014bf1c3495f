package automata

import (
	"os"
	"os/exec"
	"runtime/debug"
	"testing"
)

// TestExpandDeepChain expands a cat chain 1,000,000 deep, the shape a run
// builds when it marks a chain of a million siblings. It runs in a
// subprocess whose stack is capped at 4 MB, where a recursive walk dies
// with a fatal stack overflow that no recover could catch.
func TestExpandDeepChain(t *testing.T) {
	const n = 1_000_000
	if os.Getenv("AUTOMATA_EXPAND_DEEP_CHAIN") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpandDeepChain$", "-test.count=1")
		cmd.Env = append(os.Environ(), "AUTOMATA_EXPAND_DEEP_CHAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			if len(out) > 2000 {
				out = out[:2000]
			}
			t.Fatalf("subprocess: %v\n%s", err, out)
		}
		return
	}
	debug.SetMaxStack(4 << 20)
	// The chain holds the positions in descending order, so Expand sorts.
	var s *Seq
	for i := 0; i < n; i++ {
		s = &Seq{kind: seqCat, l: &Seq{kind: seqLeaf, node: i}, r: s}
	}
	got := s.Expand(nil)
	if len(got) != n {
		t.Fatalf("Expand returned %d positions, want %d", len(got), n)
	}
	for i, p := range got {
		if p != i {
			t.Fatalf("position %d is %d, want %d", i, p, i)
		}
	}
}
