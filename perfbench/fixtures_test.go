package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/eda-go/adifo/internal/cli"
)

var update = flag.Bool("update", false, "rewrite fixtures/*.bench from cli.LoadNamedCircuit")

// TestFixturesMatchNamedCircuits resolves every fixture's suite name
// cold (about a minute in total, mostly irs820 and irs1196) and
// requires the fixture to be that netlist. A change to gen or irr that
// alters a suite circuit fails here instead of the benchmark silently
// measuring a different circuit.
func TestFixturesMatchNamedCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves suite circuits cold")
	}
	for _, name := range fixtureNames {
		c, err := cli.LoadNamedCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			f, err := os.Create(filepath.Join("fixtures", name+".bench"))
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFixture(f, c); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		fx, err := loadFixture(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fx.Fingerprint(), c.Fingerprint(); got != want {
			t.Errorf("%s: fixture fingerprint %016x, cli.LoadNamedCircuit gives %016x", name, got, want)
		}
	}
}
