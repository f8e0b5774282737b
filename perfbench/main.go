// Command perfbench is the repository's benchmark. One client runs one
// operation at a time, back to back (a closed loop), for the given number
// of seconds, with GOMAXPROCS capped at min(nproc, 2). Each workload's
// inputs come from --seed. Every operation is checked by a correctness
// oracle, and the last line of standard output is a JSON object with the
// end-to-end metrics (--trace 0), each the median over the run's
// operations, or the per-layer metrics (--trace 1), each the mean over its
// traced operations.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mpi2-table3 --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// op accumulates one closed-loop operation's span times, counts and
// oracle results.
type op struct {
	traced            bool
	vals              map[string]float64
	attempted, failed int
	errs              []string
}

func newOp(traced bool) *op { return &op{traced: traced, vals: map[string]float64{}} }

// span times fn into the named per-layer metric.
func (o *op) span(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	o.vals[name] += time.Since(t0).Seconds()
	return err
}

func (o *op) add(name string, v float64) { o.vals[name] += v }

// pass and fail record one oracle-checked operation.
func (o *op) pass() { o.attempted++ }

func (o *op) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// memNow reads the cumulative heap bytes and objects allocated.
func memNow() (bytes, objects float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc), float64(ms.Mallocs)
}

// result is one benchmark run's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	traced   bool
	reduced  bool
	workDir  string // scratch stores and kept profiles go under it
}

// measure runs one benchmark run: prepare the workload, then repeat its
// operation until the time is up. A traced run alternates untraced and
// traced operations, so the difference between the two is its overhead.
func measure(cfg config) (*result, error) {
	scratch, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	run, err := cfg.workload.prepare(env{seed: cfg.seed, workDir: scratch, traced: cfg.traced, reduced: cfg.reduced})
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.workload.name, err)
	}

	res := &result{Metrics: map[string]metric{}}
	var plain, traced []map[string]float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget || (cfg.traced && len(traced) == 0); i++ {
		// Collect the previous operation's garbage first, so no operation
		// pays for another's: short spans such as set-up would otherwise
		// take whatever GC debt the last operation left behind.
		runtime.GC()
		o := newOp(cfg.traced && i%2 == 1)
		if o.traced {
			if err := profiled(o, run, cfg, len(traced)); err != nil {
				return nil, err
			}
		} else {
			timed(o, run)
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
		fmt.Fprintf(os.Stderr, "perfbench: op %d traced=%v op_s=%.4f setup_s=%.6f diagnose_s=%.4f failed=%d/%d\n",
			i, o.traced, o.vals["op_s"], o.vals["setup_s"], o.vals["diagnose_s"], o.failed, o.attempted)
		for _, e := range o.errs {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
		}
		if o.traced {
			traced = append(traced, o.vals)
		} else {
			plain = append(plain, o.vals)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if !cfg.traced {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{median(plain, m.Name), m.Unit}
		}
		// The high-water RSS is the process's, not an operation's.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		return res, nil
	}
	// Per-layer values are means over the traced operations, so the spans
	// add up to their sums and short operations' CPU samples are pooled.
	for _, m := range perLayer {
		res.Metrics[m.Name] = metric{mean(traced, m.Name), m.Unit}
	}
	for _, name := range []string{"setup_s", "diagnose_s"} {
		res.Metrics["trace_overhead."+name] = metric{median(traced, name) - median(plain, name), "s"}
	}
	return res, nil
}

// timed runs one operation and derives its end-to-end values.
func timed(o *op, run func(*op)) {
	alloc0, allocs0 := memNow()
	run(o)
	alloc1, allocs1 := memNow()
	o.vals["alloc_mb"] = (alloc1 - alloc0) / (1 << 20)
	o.vals["allocs_m"] = (allocs1 - allocs0) / 1e6
	for _, m := range perLayer {
		if m.Part != "" {
			o.vals[m.Part] += o.vals[m.Name]
			o.vals["op_s"] += o.vals[m.Name]
		}
	}
	if n := o.vals["consultant.tested"]; n > 0 {
		o.vals["consultant.true_ratio"] = o.vals["consultant.true"] / n
	}
}

// profiled runs one traced operation under a CPU profile, splits the
// profile's CPU by module and keeps the profile file it read.
func profiled(o *op, run func(*op), cfg config, k int) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	gc0, cycles0 := gcCPU()
	timed(o, run)
	gc1, cycles1 := gcCPU()
	pprof.StopCPUProfile()
	o.vals["runtime.gc_cpu_s"] = gc1 - gc0
	o.vals["runtime.gc_cycles"] = cycles1 - cycles0

	cpu, err := cpuByModule(buf.Bytes(), cpuModules)
	if err != nil {
		return err
	}
	for mod, s := range cpu {
		if mod == "" {
			o.vals["runtime.bg_cpu_s"] += s
		} else {
			o.vals[mod+".cpu_s"] += s
		}
	}
	if n := o.vals["probe.executions"]; n > 0 {
		o.vals["probe.ns_per_execution"] = (o.vals["probe.cpu_s"] + o.vals["mdl.cpu_s"]) * 1e9 / n
	}
	dir := filepath.Join(cfg.workDir, "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-op%d.pprof", cfg.workload.name, cfg.seed, k))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: CPU profile kept at", path)
	return nil
}

// mean returns the mean of one value across operations.
func mean(ops []map[string]float64, name string) float64 {
	sum := 0.0
	for _, vals := range ops {
		sum += vals[name]
	}
	return sum / float64(len(ops))
}

// median returns the median of one value across operations (0 when no
// operation recorded it).
func median(ops []map[string]float64, name string) float64 {
	if len(ops) == 0 {
		return 0
	}
	xs := make([]float64, len(ops))
	for i, vals := range ops {
		xs[i] = vals[name]
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload to run: pc-small-messages, mpi2-table3 or perfdb-history")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long the closed loop runs")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	workDir := flag.String("work-dir", ".bench_build", "directory for scratch stores and the traced run's CPU profiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := measure(config{
		workload: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workDir: *workDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
