package pcl

// Fuzz target for the PCL parser: any text yields a config or an error,
// never a panic or a hang. Run with
//
//	go test -fuzz=FuzzPCLParse ./internal/pcl
//
// The seed corpus is testdata/example.pcl, this package's sample, and
// truncated or unbalanced blocks.

import (
	"os"
	"testing"
)

func FuzzPCLParse(f *testing.F) {
	example, err := os.ReadFile("../../testdata/example.pcl")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		string(example),
		sample,
		"",
		"daemon d { command \"x\"; mpi_implementation \"lam\"; }",
		"tunable_constant { \"PC_CPUThreshold\" 1e400; }",
		"process p { daemon",
		"mdl { { }",
		"daemon d { command \"unterminated",
		"/* open comment",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := Parse(src) // must not panic
		if (cfg == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a config or an error", src, cfg, err)
		}
	})
}
