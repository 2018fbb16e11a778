package main

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"strings"

	"github.com/eda-go/adifo/internal/circuit"
)

// The irredundant suite netlists the benchmark grades and generates
// tests for, written once from cli.LoadNamedCircuit (see
// TestFixturesMatchNamedCircuits). Loading them costs milliseconds,
// where resolving a suite name re-runs the irredundancy pass (up to
// half a minute per circuit).
//
//go:embed fixtures/*.bench
var fixtureFS embed.FS

// fixtureNames are the suite circuits stored under fixtures/.
var fixtureNames = []string{"irs420", "irs641", "irs820", "irs953", "irs1196"}

// writeFixture writes c as .bench with its logic gates in gate-id
// order. circuit.WriteBench emits topological order, which ParseBench
// renumbers; keeping id order makes the parsed netlist carry the same
// circuit.Fingerprint as the resolved one, so a fixture can be checked
// against its suite name.
func writeFixture(w io.Writer, c *circuit.Circuit) error {
	for i, id := range c.Inputs {
		if id != i {
			return fmt.Errorf("%s: input %d has gate id %d; fixtures need inputs first", c.Name, i, id)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s, fingerprint %016x\n", c.Name, c.Fingerprint())
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[id].Name)
	}
	for _, g := range c.Gates[len(c.Inputs):] {
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// loadFixture parses the embedded netlist of a suite circuit.
func loadFixture(name string) (*circuit.Circuit, error) {
	b, err := fixtureFS.ReadFile("fixtures/" + name + ".bench")
	if err != nil {
		return nil, err
	}
	return circuit.ParseBenchString(name, string(b))
}
