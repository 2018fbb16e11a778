package main

import (
	"context"
	"fmt"
	"time"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/cli"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/irr"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// cold_resolve: op = one named suite circuit resolved cold to a
// gradeable state — cli.LoadNamedCircuit (gen + irr), then
// fault.CollapsedUniverse, circuit.Compile and fsim.ComputeGoodCompiled
// over coldPatterns random vectors of its own. A round resolves four
// prefilter-dominated small circuits coldSmallRepeats times each and
// one abort-dominated large one (irs820) once; irs820 takes most of the
// round. The repeats give the latency percentiles more than one sample
// per small circuit. The seed permutes the round and draws the
// good-machine vectors.

const coldPatterns = 2048

// coldPin is the expected resolve of one suite circuit. The suite is a
// pure function of its frozen seeds, so the pins hold at every
// workload seed.
type coldPin struct {
	fingerprint uint64
	faults      int
	stats       irr.Stats
}

var coldPins = map[string]coldPin{
	"irs420": {0x86aa29516d34f93a, 595, irr.Stats{Iterations: 3, RedundantRemoved: 41, GatesBefore: 202, GatesAfter: 174, Clean: true}},
	"irs510": {0xed8c6d8c3b4b20a2, 537, irr.Stats{Iterations: 3, RedundantRemoved: 209, GatesBefore: 236, GatesAfter: 162, Clean: true}},
	"irs526": {0x3f2d3762560e3b32, 470, irr.Stats{Iterations: 2, RedundantRemoved: 274, GatesBefore: 248, GatesAfter: 152, Clean: true}},
	"irs641": {0xa4b0bb9385d81ea7, 999, irr.Stats{Iterations: 2, RedundantRemoved: 64, GatesBefore: 294, GatesAfter: 270, Clean: true}},
	"irs820": {0x5967f0e602bfe427, 1007, irr.Stats{Iterations: 4, RedundantRemoved: 175, GatesBefore: 374, GatesAfter: 289, Clean: false}},
}

var (
	coldSmall = []string{"irs420", "irs510", "irs526", "irs641"}
	coldLarge = "irs820"
)

const coldSmallRepeats = 5

type coldCircuit struct {
	name string
	sc   gen.SuiteCircuit
	pin  coldPin
}

type coldInstance struct {
	mix []coldCircuit
	ps  []*logic.PatternSet // good-machine vectors, one set per op
}

// prepareCold fixes the round's order and checks the fixtures. The
// workload starts cold, so its set-up resolves nothing: it only draws
// the vectors each op's good-machine simulation consumes.
func prepareCold(seed uint64) (func() (instance, error), error) {
	var names []string
	for i := 0; i < coldSmallRepeats; i++ {
		names = append(names, coldSmall...)
	}
	names = append(names, coldLarge)
	var mix []coldCircuit
	for _, i := range prng.New(derive(seed, "cold/order")).Perm(len(names)) {
		name := names[i]
		sc, ok := gen.SuiteByName(name)
		if !ok {
			return nil, fmt.Errorf("%s is not a suite circuit", name)
		}
		mix = append(mix, coldCircuit{name: name, sc: sc, pin: coldPins[name]})
	}
	// A fixture of a mix circuit must be the pinned netlist:
	// paper_flow and the grading references rely on it.
	for _, name := range append(coldSmall, coldLarge) {
		if fx, err := loadFixture(name); err == nil && fx.Fingerprint() != coldPins[name].fingerprint {
			return nil, fmt.Errorf("fixture %s has fingerprint %016x, pinned %016x", name, fx.Fingerprint(), coldPins[name].fingerprint)
		}
	}
	return func() (instance, error) {
		in := &coldInstance{mix: mix}
		for k, cc := range mix {
			in.ps = append(in.ps, logic.RandomPatterns(cc.sc.Inputs, coldPatterns, prng.New(derive(seed, fmt.Sprintf("cold/good/%s/%d", cc.name, k)))))
		}
		return in, nil
	}, nil
}

func (in *coldInstance) round(_ context.Context, tr *tracer, rec *recorder) {
	for k, cc := range in.mix {
		start := time.Now()
		err := in.op(cc, in.ps[k], tr, rec)
		rec.done(cc.name, time.Since(start), err)
	}
}

// op resolves one circuit. Untraced it calls cli.LoadNamedCircuit as a
// user would; traced it makes the same two calls LoadNamedCircuit
// makes, gen.Generate and irr.Make, so the split and irr.Stats can be
// recorded.
func (in *coldInstance) op(cc coldCircuit, ps *logic.PatternSet, tr *tracer, rec *recorder) error {
	op := rec.nextOp()
	root := tr.start(op, -1, "op")
	defer tr.end(root)

	var c *circuit.Circuit
	s := tr.start(op, root, "cli.resolve")
	if tr == nil {
		var err error
		if c, err = cli.LoadNamedCircuit(cc.name); err != nil {
			return err
		}
	} else {
		g := tr.start(op, s, "gen.generate")
		raw := gen.Generate(cc.sc.Config())
		tr.end(g)
		m := tr.start(op, s, "irr.make")
		var st irr.Stats
		var err error
		c, st, err = irr.Make(raw, irr.Options{})
		tr.end(m)
		if err != nil {
			return err
		}
		rec.add("irr.iterations", float64(st.Iterations))
		rec.add("irr.redundant_removed", float64(st.RedundantRemoved))
		if !st.Clean {
			rec.add("irr.unclean", 1)
		}
		if st != cc.pin.stats {
			return fmt.Errorf("%s: irr.Stats %+v, pinned %+v", cc.name, st, cc.pin.stats)
		}
	}
	tr.end(s)

	s = tr.start(op, root, "fault.collapse")
	fl := fault.CollapsedUniverse(c)
	tr.end(s)
	s = tr.start(op, root, "circuit.compile")
	comp := circuit.Compile(c)
	tr.end(s)
	s = tr.start(op, root, "fsim.good")
	good := fsim.ComputeGoodCompiled(comp, ps)
	tr.end(s)

	if fp := c.Fingerprint(); fp != cc.pin.fingerprint {
		return fmt.Errorf("%s: fingerprint %016x, pinned %016x", cc.name, fp, cc.pin.fingerprint)
	}
	if fl.Len() != cc.pin.faults {
		return fmt.Errorf("%s: %d collapsed faults, pinned %d", cc.name, fl.Len(), cc.pin.faults)
	}
	if want := ps.Blocks() * comp.NumGates() * 8; good.Bytes() != want {
		return fmt.Errorf("%s: good machine holds %d bytes, want %d", cc.name, good.Bytes(), want)
	}
	return nil
}

func (in *coldInstance) layers(rec *recorder, lt map[string]*layerTotals) map[string]float64 {
	v := map[string]float64{
		"irr.iterations":        rec.perOp(rec.sum("irr.iterations")),
		"irr.redundant_removed": rec.perOp(rec.sum("irr.redundant_removed")),
		"irr.unclean":           rec.perOp(rec.sum("irr.unclean")),
	}
	for _, name := range []string{"cli.resolve", "gen.generate", "irr.make", "fault.collapse", "circuit.compile", "fsim.good"} {
		v[name+"_s"] = rec.perOp(inclusive(lt, name))
	}
	return v
}

func (in *coldInstance) close() {}

// inclusive returns the summed duration of the spans named name.
func inclusive(lt map[string]*layerTotals, name string) float64 {
	if t := lt[name]; t != nil {
		return t.Inclusive
	}
	return 0
}
