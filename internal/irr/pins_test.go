package irr

import (
	"testing"

	"github.com/eda-go/adifo/internal/gen"
)

// suitePins are the netlist fingerprint and pass statistics of every
// gen.PaperSuite circuit after Make with default options. EXPERIMENTS.md
// and the benchmark's cold-resolve oracle depend on these netlists, so
// a change to the pass may change its speed but never these values.
var suitePins = map[string]struct {
	fingerprint uint64
	stats       Stats
}{
	"irs208":   {0xcb62d0dd732d4d77, Stats{Iterations: 2, RedundantRemoved: 8, GatesBefore: 104, GatesAfter: 102, Clean: true}},
	"irs298":   {0x17bafe711564320c, Stats{Iterations: 3, RedundantRemoved: 69, GatesBefore: 136, GatesAfter: 90, Clean: true}},
	"irs344":   {0x6785af62dd4fbe17, Stats{Iterations: 4, RedundantRemoved: 70, GatesBefore: 164, GatesAfter: 137, Clean: true}},
	"irs382":   {0x9f922e4ebfab70f3, Stats{Iterations: 3, RedundantRemoved: 121, GatesBefore: 182, GatesAfter: 142, Clean: true}},
	"irs400":   {0xbf681d65861ac086, Stats{Iterations: 3, RedundantRemoved: 304, GatesBefore: 191, GatesAfter: 83, Clean: true}},
	"irs420":   {0x86aa29516d34f93a, Stats{Iterations: 3, RedundantRemoved: 41, GatesBefore: 202, GatesAfter: 174, Clean: true}},
	"irs510":   {0xed8c6d8c3b4b20a2, Stats{Iterations: 3, RedundantRemoved: 209, GatesBefore: 236, GatesAfter: 162, Clean: true}},
	"irs526":   {0x3f2d3762560e3b32, Stats{Iterations: 2, RedundantRemoved: 274, GatesBefore: 248, GatesAfter: 152, Clean: true}},
	"irs641":   {0xa4b0bb9385d81ea7, Stats{Iterations: 2, RedundantRemoved: 64, GatesBefore: 294, GatesAfter: 270, Clean: true}},
	"irs820":   {0x5967f0e602bfe427, Stats{Iterations: 4, RedundantRemoved: 175, GatesBefore: 374, GatesAfter: 289, Clean: false}},
	"irs953":   {0xd01a2359d00801b1, Stats{Iterations: 3, RedundantRemoved: 240, GatesBefore: 439, GatesAfter: 348, Clean: true}},
	"irs1196":  {0x91778b35358f8d61, Stats{Iterations: 4, RedundantRemoved: 141, GatesBefore: 546, GatesAfter: 458, Clean: false}},
	"irs5378":  {0xe5e38403a2a75de9, Stats{Iterations: 2, RedundantRemoved: 28, GatesBefore: 2400, GatesAfter: 2386, Clean: false}},
	"irs13207": {0xe93ef5f11b607e5c, Stats{Iterations: 3, RedundantRemoved: 34, GatesBefore: 5600, GatesAfter: 5592, Clean: false}},
}

// TestSuitePins pins the netlist and Stats that Make produces for all
// fourteen suite circuits. The two large circuits take tens of seconds
// each and are skipped under -short only.
func TestSuitePins(t *testing.T) {
	suite := gen.PaperSuite()
	if len(suite) != len(suitePins) {
		t.Fatalf("suite has %d circuits, %d pinned", len(suite), len(suitePins))
	}
	for _, sc := range suite {
		t.Run(sc.Name, func(t *testing.T) {
			pin, ok := suitePins[sc.Name]
			if !ok {
				t.Fatalf("%s is not pinned", sc.Name)
			}
			if testing.Short() && (sc.Name == "irs5378" || sc.Name == "irs13207") {
				t.Skip("large suite circuit skipped under -short")
			}
			out, st, err := Make(sc.Build(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fp := out.Fingerprint(); fp != pin.fingerprint {
				t.Errorf("fingerprint %016x, pinned %016x", fp, pin.fingerprint)
			}
			if st != pin.stats {
				t.Errorf("Stats %+v, pinned %+v", st, pin.stats)
			}
		})
	}
}
