package irr

import (
	"slices"
	"testing"

	"github.com/eda-go/adifo/internal/gen"
)

// TestClassifyWorkerCountIndependent runs every classify/rewrite
// iteration of Make at 1, 2, 3 and 8 workers and requires the same
// redundant faults, in the same order, and the same aborted flag.
// irs820 aborts in every iteration, so it also covers the aborted
// path; it takes tens of seconds and is skipped under -short.
func TestClassifyWorkerCountIndependent(t *testing.T) {
	suite := gen.SmallSuite()
	for _, name := range []string{"irs641", "irs820"} {
		sc, ok := gen.SuiteByName(name)
		if !ok {
			t.Fatalf("%s not in the suite", name)
		}
		suite = append(suite, sc)
	}
	for _, sc := range suite {
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && sc.Name == "irs820" {
				t.Skip("irs820 skipped under -short")
			}
			cur := sc.Build()
			sawAbort := false
			for iter := 1; ; iter++ {
				want, wantAborted := classifyWorkers(cur, defaultBacktrackLimit, 1)
				sawAbort = sawAbort || wantAborted
				for _, workers := range []int{2, 3, 8} {
					got, gotAborted := classifyWorkers(cur, defaultBacktrackLimit, workers)
					if !slices.Equal(got, want) || gotAborted != wantAborted {
						t.Fatalf("iteration %d, %d workers: %d redundant (aborted %v), 1 worker: %d redundant (aborted %v)",
							iter, workers, len(got), gotAborted, len(want), wantAborted)
					}
				}
				if len(want) == 0 {
					break
				}
				next, err := applyConstants(cur, want)
				if err != nil {
					t.Fatal(err)
				}
				cur = next
			}
			if sc.Name == "irs820" && !sawAbort {
				t.Error("irs820 no longer aborts; pick another circuit for the aborted path")
			}
		})
	}
}
