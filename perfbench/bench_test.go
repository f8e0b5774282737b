package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"pperf/internal/mpi"
	"pperf/internal/pperfmark"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	f := loadBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range f.Workloads {
		check(w.Name)
	}
	for _, m := range f.EndToEnd {
		check(m.Name)
	}
	for _, m := range f.PerLayer {
		check(m.Name)
	}
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json to the workloads and
// metrics the program defines, and to the bounds' limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end_to_end %d: file %+v, program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", got.Name, got.Bound)
		}
		maxBound = max(maxBound, got.Bound)
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: file %+v, program %+v", i, got, m)
		}
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end target", m.Name)
		}
		for _, wl := range strings.Split(m.On, ",") {
			if _, ok := findWorkload(wl); !ok {
				t.Errorf("%s: target workload %q unknown", m.Name, wl)
			}
		}
	}
}

// TestReducedRuns runs every workload at reduced size, untraced and
// traced: each must pass the oracle with no failed operation and print
// exactly its metrics, each with the unit BENCHMARK.json gives it.
func TestReducedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := loadBenchmarkFile(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range f.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := reducedRun(t, w, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(units[traced]) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(res.Metrics), len(units[traced]))
			}
			for name, unit := range units[traced] {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", w.name, traced, name, m, ok, unit)
				}
			}
		}
	}
}

// TestTracedCountsRepeat checks that the counts a claim may rest on
// repeat exactly for one seed, and that each workload's CPU lands where
// the benchmark's design says: probe and MDL on the live small-messages
// session, no MPI, probe or MDL work inside perfdb-history's timed part.
// (Replay paces the Consultant on a sim.Engine clock, so sim may show a
// few samples there.)
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		a, b := reducedRun(t, w, true), reducedRun(t, w, true)
		for _, name := range []string{"sim.virtual_s", "probe.executions", "consultant.tested"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s %v then %v", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		switch w.name {
		case wlPC:
			if a.Metrics["mdl.cpu_s"].Value+a.Metrics["probe.cpu_s"].Value == 0 {
				t.Errorf("%s: no CPU charged to mdl or probe", w.name)
			}
		case wlPerfDB:
			for _, mod := range []string{"mpi", "probe", "mdl"} {
				if v := a.Metrics[mod+".cpu_s"].Value; v != 0 {
					t.Errorf("%s: %s.cpu_s = %g, want 0", w.name, mod, v)
				}
			}
		}
	}
}

func reducedRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	res, err := measure(config{workload: w, seed: 7, traced: traced, reduced: true, workDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	return res
}

// TestSessionMatchesHarness holds the benchmark's step-by-step judged
// session to pperfmark.Run: the same program, implementation and seed
// must give the same findings, run time and probe executions.
func TestSessionMatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sessions per case")
	}
	for _, c := range []struct {
		prog   string
		impl   mpi.ImplKind
		params pperfmark.Params
	}{
		{"small-messages", mpi.LAM, pperfmark.Params{Iterations: 15000}},
		{"oned", mpi.MPICH2, pperfmark.Params{}},
		{"spawncount", mpi.MPICH, pperfmark.Params{}},
	} {
		got, _, err := judgedSession(newOp(false), c.prog, c.impl, c.params, 7)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.prog, c.impl, err)
		}
		want, err := pperfmark.Run(c.prog, pperfmark.RunOptions{Impl: c.impl, Params: c.params, Seed: 7})
		if err != nil {
			t.Fatalf("%s/%s: pperfmark.Run: %v", c.prog, c.impl, err)
		}
		if (got.Unsupported == nil) != (want.Unsupported == nil) {
			t.Errorf("%s/%s: unsupported %v, harness %v", c.prog, c.impl, got.Unsupported, want.Unsupported)
			continue
		}
		if want.PC == nil {
			continue
		}
		if g, w := got.PC.Export().String(), want.PC.Export().String(); g != w {
			t.Errorf("%s/%s: findings differ from pperfmark.Run:\n%s\nharness:\n%s", c.prog, c.impl, g, w)
		}
		if got.RunTime != want.RunTime || got.ProbeExecs != want.ProbeExecs {
			t.Errorf("%s/%s: run time %v, probes %d; harness %v, %d", c.prog, c.impl,
				got.RunTime, got.ProbeExecs, want.RunTime, want.ProbeExecs)
		}
	}
}

func TestCPUByModuleRejectsGarbage(t *testing.T) {
	if _, err := cpuByModule([]byte("not a profile"), cpuModules); err == nil {
		t.Error("non-gzip input decoded")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x0a, 0xff}) // sample_type with a length past the end
	zw.Close()
	if _, err := cpuByModule(buf.Bytes(), cpuModules); err == nil {
		t.Error("truncated profile decoded")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pperf/internal/mdl.(*env).exec":      "mdl",
		"pperf/internal/sim.(*Proc).run":      "sim",
		"pperf/internal/perfdb.Compare.func1": "perfdb",
		"runtime.mallocgc":                    "",
		"main.measure":                        "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
