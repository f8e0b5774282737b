package mdl

// Fuzz target for the MDL compiler: any text yields a library or an error,
// never a panic, and a library that compiles instantiates and fires without
// panicking either — an error the compiler could catch never waits for a
// probe. Run with
//
//	go test -fuzz=FuzzMDLCompile ./internal/mdl
//
// The seed corpus is the standard library, the custom-metric example's
// MDL, the MDL block of testdata/example.pcl, and snippets the compiler
// rejects.

import (
	"os"
	"strings"
	"testing"

	"pperf/internal/mpi"
	"pperf/internal/pcl"
	"pperf/internal/probe"
	"pperf/internal/resource"
	"pperf/internal/sim"
)

// fuzzTarget is one bare process with a clock that stands still.
type fuzzTarget struct{ p *probe.Process }

func (t fuzzTarget) Probes() *probe.Process            { return t.p }
func (t fuzzTarget) FunctionsOfModule(string) []string { return nil }
func (fuzzTarget) WallNow() sim.Time                   { return 0 }
func (fuzzTarget) CPUNow() sim.Duration                { return 0 }
func (fuzzTarget) SystemNow() sim.Duration             { return 0 }
func (fuzzTarget) Now() sim.Time                       { return 0 }
func (fuzzTarget) CPUTime() sim.Duration               { return 0 }
func (fuzzTarget) AddOverhead(sim.Duration)            {}

// between returns the text of src between the first occurrence of open and
// the next occurrence of close after it.
func between(t testing.TB, src, open, close string) string {
	_, rest, ok := strings.Cut(src, open)
	if !ok {
		t.Fatalf("no %q in seed file", open)
	}
	body, _, ok := strings.Cut(rest, close)
	if !ok {
		t.Fatalf("no %q after %q in seed file", close, open)
	}
	return body
}

func readSeed(t testing.TB, path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func FuzzMDLCompile(f *testing.F) {
	f.Add(StdSource)
	f.Add(between(f, readSeed(f, "../../examples/custom-metric/main.go"), "const userMDL = `", "`"))
	cfg, err := pcl.Parse(readSeed(f, "../../testdata/example.pcl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cfg.MDL)
	for _, body := range []string{
		"ghost++;",
		"startWalltimer(m);",
		"MPI_Type_size($arg[2]);",
		"if (DYNINSTTagName($arg[4]) == $constraint[0]) m = 1;",
		"m += DYNINSTComm_FindId($arg[5]) != \"comm-1\";",
	} {
		f.Add(`resourceList fns is procedure { "MPI_Send" };
metric m { name "m"; base is counter { foreach func in fns { append preinsn func.entry (* ` + body + ` *) } } }`)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lib, err := CompileSource(src) // must not panic
		if err != nil {
			return
		}
		// Every compiled snippet fires without panicking, whatever the
		// arguments of the instrumented call.
		tgt := fuzzTarget{}
		tgt.p = probe.NewProcess("fuzz", tgt)
		for _, name := range lib.MetricNames() {
			if _, err := lib.Metric(name).Instantiate(tgt, resource.WholeProgram()); err != nil {
				t.Fatalf("metric %s compiled but does not instantiate: %v", name, err)
			}
		}
		args := []any{nil, 3, mpi.Double, "s", 7, new(mpi.Comm), true, 2.5, int64(-1), nil, 1, new(mpi.Comm)}
		for _, fns := range lib.sets {
			for _, fn := range fns {
				pf := &probe.Function{Name: fn}
				tgt.p.Enter(pf, args...)
				tgt.p.Leave(pf, args...)
			}
		}
	})
}
