package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/tgen"
)

// paper_flow: op = one prepared irredundant circuit through the
// paper's Section 4 flow: size U (drop mode, stop at 90% coverage over
// 10,000 random candidates), compute the ADI from a no-drop simulation
// over U, then for each of the orders orig, dynm, 0dynm and incr0 take
// Index.Order and run tgen.Generate with Validate. The circuits come
// from fixtures/, so set-up does not pay the irredundancy pass. U is
// always drawn with the experiment harness's seed: where the 90% stop
// falls swings |U| (irs953 never reaches 90% within 10,000 vectors at
// that seed) and with it the cost of the no-drop simulation and the
// dynamic orders, so a U drawn from the workload seed would make the
// work per op depend on the seed. At the default seed the fill uses
// the harness's seed too and every result is pinned; other seeds draw
// the fill from the seed and are checked against tgen's invariants.

var paperMix = []string{"irs420", "irs641", "irs820", "irs953", "irs1196"}

var paperOrders = []adi.OrderKind{adi.Orig, adi.Dynm, adi.Dynm0, adi.Incr0}

// paperPin is one (circuit, order) cell of the paper's Tables 5 and 7
// at the default seed: test-set size, detected faults, AVE and a digest
// of the test vectors.
type paperPin struct {
	tests, detected int
	ave             float64
	digest          uint64
}

var paperPins = map[string][4]paperPin{
	"irs420": {
		{96, 594, 16.112794612794612, 0xcb24b5cda88ad5e7},
		{88, 594, 13.813131313131313, 0x2d62888f9461d1a},
		{72, 594, 13.188552188552189, 0x34179be0365ac4fe},
		{96, 595, 18.927731092436975, 0xb03cb93015d07f64},
	},
	"irs641": {
		{118, 999, 15.58958958958959, 0x466b3ca51a92ad0c},
		{115, 999, 14.28928928928929, 0x24fd687b80e1250a},
		{97, 999, 13.353353353353354, 0x19dd8a1d066f16eb},
		{139, 999, 21.966966966966968, 0x60c1b885f081c4f7},
	},
	"irs820": {
		{90, 989, 14.917087967644084, 0x75b5049969c0a89},
		{89, 989, 11.777553083923154, 0x6fc0a396aa7538c8},
		{74, 988, 11.463562753036438, 0x2d6539f652c73df},
		{119, 988, 18.089068825910932, 0x65a1473811a8a254},
	},
	"irs953": {
		{134, 1045, 20.160765550239233, 0xd584dce8e5e65369},
		{142, 1045, 19.803827751196174, 0xce5eee89f69b5960},
		{119, 1045, 20.608612440191386, 0xb8c1c8401b176d81},
		{166, 1046, 30.883365200764818, 0xd899f904e7fbfc0b},
	},
	"irs1196": {
		{162, 1570, 21.691082802547772, 0x4e7bc49ae8c5ffb4},
		{152, 1572, 18.040076335877863, 0x33ad780c6e88c475},
		{124, 1569, 16.369024856596557, 0xb6b99d2c0c1c9024},
		{178, 1570, 26.7828025477707, 0x34f331947d9ce1d4},
	},
}

type paperCircuit struct {
	name string
	fl   *fault.List
	ref  *paperRef
}

// paperRef is what the output checks of one circuit use, built once
// from its own copy of the fixture.
type paperRef struct {
	fl      *fault.List
	checker *fsim.Checker
	pins    *[4]paperPin // nil away from the default seed
}

type paperInstance struct {
	mix             []paperCircuit
	uSeed, fillSeed uint64
}

// preparePaper builds the output checks. The timed set-up is what a
// user of the flow pays before the first circuit: loading each netlist
// and collapsing its faults.
func preparePaper(seed uint64) (func() (instance, error), error) {
	fillSeed := adifo.DefaultFillSeed
	if seed != defaultSeed {
		fillSeed = derive(seed, "paper/fill")
	}
	refs := map[string]*paperRef{}
	for _, name := range paperMix {
		c, err := loadFixture(name)
		if err != nil {
			return nil, err
		}
		ref := &paperRef{fl: fault.CollapsedUniverse(c), checker: fsim.NewChecker(c)}
		if seed == defaultSeed {
			p, ok := paperPins[name]
			if !ok {
				return nil, fmt.Errorf("no pins for %s", name)
			}
			ref.pins = &p
		}
		refs[name] = ref
	}
	return func() (instance, error) {
		in := &paperInstance{uSeed: adifo.DefaultUSeed, fillSeed: fillSeed}
		for _, name := range paperMix {
			c, err := loadFixture(name)
			if err != nil {
				return nil, err
			}
			in.mix = append(in.mix, paperCircuit{name: name, fl: fault.CollapsedUniverse(c), ref: refs[name]})
		}
		return in, nil
	}, nil
}

func (in *paperInstance) round(_ context.Context, tr *tracer, rec *recorder) {
	for _, pc := range in.mix {
		start := time.Now()
		err := in.op(pc, tr, rec)
		rec.done(pc.name, time.Since(start), err)
	}
}

func (in *paperInstance) op(pc paperCircuit, tr *tracer, rec *recorder) error {
	op := rec.nextOp()
	root := tr.start(op, -1, "op")
	defer tr.end(root)
	fl := pc.fl
	c := fl.Circuit

	s := tr.start(op, root, "fsim.size")
	cand := logic.RandomPatterns(c.NumInputs(), adifo.DefaultUBudget, prng.New(in.uSeed))
	sizing := fsim.RunParallelWith(fl, cand, fsim.ParallelOptions{
		Options: fsim.Options{Mode: fsim.Drop, StopAtCoverage: adifo.DefaultTargetCoverage},
	})
	u := cand.Slice(sizing.VectorsUsed)
	tr.end(s)

	s = tr.start(op, root, "fsim.nodrop")
	res := fsim.RunParallelWith(fl, u, fsim.ParallelOptions{Options: fsim.Options{Mode: fsim.NoDrop}})
	tr.end(s)
	rec.add("fsim.nodrop_fault_vectors", float64(fl.Len())*float64(u.Len()))

	s = tr.start(op, root, "adi.index")
	ix := adi.FromResult(res, u)
	tr.end(s)

	for k, kind := range paperOrders {
		s = tr.start(op, root, "adi.order")
		order := ix.Order(kind)
		tr.end(s)
		s = tr.start(op, root, "tgen.generate")
		r := tgen.Generate(fl, order, tgen.Options{FillSeed: in.fillSeed, Validate: true})
		tr.end(s)
		rec.add("tgen.tests", float64(len(r.Tests)))
		rec.add("atpg.calls", float64(r.AtpgCalls))
		rec.add("atpg.backtracks", float64(r.Backtracks))
		rec.add("atpg.aborted", float64(len(r.Aborted)))
		if err := pc.ref.check(r); err != nil {
			return fmt.Errorf("%s %v: %w", pc.name, kind, err)
		}
		if pins := pc.ref.pins; pins != nil {
			got := paperPin{len(r.Tests), r.Detected(), r.AVE(), testDigest(r.Tests)}
			if got != pins[k] {
				return fmt.Errorf("%s %v: got %+v, pinned %+v", pc.name, kind, got, pins[k])
			}
		}
	}
	return nil
}

// check checks tgen's invariants from outside: every test detects the
// fault it was generated for, and the coverage curve ends at the number
// of faults an independent simulation of the whole test set detects.
func (ref *paperRef) check(r *tgen.Result) error {
	if len(r.Curve) != len(r.Tests) || len(r.TargetOf) != len(r.Tests) {
		return fmt.Errorf("%d tests, %d curve points, %d targets", len(r.Tests), len(r.Curve), len(r.TargetOf))
	}
	fl := ref.fl
	ps := logic.NewPatternSet(fl.Circuit.NumInputs())
	for i, v := range r.Tests {
		if !ref.checker.Detects(fl.Faults[r.TargetOf[i]], v) {
			return fmt.Errorf("test %d does not detect its target %s", i, fl.Faults[r.TargetOf[i]].Name(fl.Circuit))
		}
		ps.Append(v)
	}
	if ps.Len() == 0 {
		return fmt.Errorf("empty test set")
	}
	if n := fsim.Run(fl, ps, fsim.Options{Mode: fsim.Drop}).DetectedCount(); n != r.Detected() {
		return fmt.Errorf("curve ends at %d detected, the test set detects %d", r.Detected(), n)
	}
	return nil
}

// testDigest hashes a test set in generation order.
func testDigest(tests []logic.Vector) uint64 {
	h := fnv.New64a()
	for _, v := range tests {
		fmt.Fprintln(h, v.String())
	}
	return h.Sum64()
}

func (in *paperInstance) layers(rec *recorder, lt map[string]*layerTotals) map[string]float64 {
	v := map[string]float64{
		"fsim.nodrop_fault_vectors_per_s": ratio(rec.sum("fsim.nodrop_fault_vectors"), inclusive(lt, "fsim.nodrop")),
		"atpg.success_ratio":              ratio(rec.sum("tgen.tests"), rec.sum("atpg.calls")),
	}
	for _, name := range []string{"tgen.tests", "atpg.calls", "atpg.backtracks", "atpg.aborted"} {
		v[name] = rec.perOp(rec.sum(name))
	}
	for _, name := range []string{"fsim.size", "fsim.nodrop", "adi.index", "adi.order", "tgen.generate"} {
		v[name+"_s"] = rec.perOp(inclusive(lt, name))
	}
	return v
}

func (in *paperInstance) close() {}
