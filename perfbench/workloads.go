package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pperf/internal/consultant"
	"pperf/internal/core"
	"pperf/internal/daemon"
	"pperf/internal/faults"
	"pperf/internal/frontend"
	"pperf/internal/mpi"
	"pperf/internal/perfdb"
	"pperf/internal/pperfmark"
	"pperf/internal/resource"
	"pperf/internal/session"
	"pperf/internal/sim"
)

// env is what a workload builds its inputs from.
type env struct {
	seed    uint64
	workDir string // scratch space for stores; removed by the caller
	traced  bool
	// reduced shrinks the live-session workloads' inputs so the
	// benchmark's own tests run in seconds; perfdb-history's fixture is
	// already that small.
	reduced bool
}

// workload is one named set of inputs. prepare builds them from the seed,
// untimed, and returns the operation the closed loop repeats.
type workload struct {
	name, why string
	prepare   func(e env) (func(o *op), error)
}

var workloads = []workload{
	{
		name: wlPC,
		why: "Fig. 3 small-messages under LAM: per-event probe firing, MDL evaluation, " +
			"coroutine handoff and unexpected-queue matching do the work; PerfDB does none",
		prepare: preparePC,
	},
	{
		name: wlTable3,
		why: "Table 3, 24 short judged sessions: instrumentation churn (enable, prune, " +
			"instantiate), window/spawn updates and session set-up rather than probe firing",
		prepare: prepareTable3,
	},
	{
		name: wlPerfDB,
		why: "five stored big-message runs: store write, sync push, replay and judge, " +
			"diff and trend; no simulation in the timed part, so simulator work is bypassed",
		prepare: preparePerfDB,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func preparePC(e env) (func(o *op), error) {
	var p pperfmark.Params
	if e.reduced {
		p.Iterations = 15000 // the smallest size pperfmark's own tests judge
	}
	return func(o *op) {
		runSession(o, "small-messages", mpi.LAM, p, e.seed)
	}, nil
}

func prepareTable3(e env) (func(o *op), error) {
	names := pperfmark.MPI2Names()
	impls := []mpi.ImplKind{mpi.LAM, mpi.MPICH, mpi.MPICH2}
	if e.reduced {
		impls = impls[:1]
	}
	return func(o *op) {
		for _, name := range names {
			for _, impl := range impls {
				runSession(o, name, impl, pperfmark.Params{}, e.seed)
			}
		}
	}, nil
}

// runSession is one judged session: pperfmark.Run's steps, driven through
// core and consultant so that set-up, the run and the judgement are timed
// apart. It counts as one operation, failed on an error or a verdict that
// is not Pass.
func runSession(o *op, name string, impl mpi.ImplKind, params pperfmark.Params, seed uint64) {
	_, v, err := judgedSession(o, name, impl, params, seed)
	switch {
	case err != nil:
		o.fail("%s/%s: %v", name, impl, err)
	case !v.Pass:
		o.fail("%s/%s: verdict not Pass: %s", name, impl, strings.Join(v.Problems, "; "))
	default:
		o.pass()
	}
}

func judgedSession(o *op, name string, impl mpi.ImplKind, params pperfmark.Params, seed uint64) (*pperfmark.Result, *pperfmark.Verdict, error) {
	entry := pperfmark.Get(name)
	prog, params, err := pperfmark.Program(name, params)
	if err != nil {
		return nil, nil, err
	}
	// The paper's layouts, as pperfmark.Run picks them.
	nodes, cpus := (params.Procs+1)/2, 2
	switch {
	case strings.HasPrefix(name, "spawn"):
		nodes = params.Children + 1
	case params.Procs <= 2:
		nodes = 2
	}
	if params.Procs <= nodes {
		cpus = 1
	}
	dcfg := daemon.DefaultConfig()
	dcfg.SampleInterval = 50 * sim.Millisecond
	opts := core.Options{
		Impl: impl, Nodes: nodes, CPUsPerNode: cpus, Seed: seed,
		Daemon: &dcfg, BinWidth: 50 * sim.Millisecond,
	}
	var sink *countingSink
	if o.traced {
		sink = newCountingSink(nil)
		opts.Recorder = sink
	}

	var s *core.Session
	if err := o.span("core.new_session_s", func() (err error) {
		s, err = core.NewSession(opts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	defer s.Close()
	res := &pperfmark.Result{Program: name, Impl: impl, Params: params, Session: s, Source: s.FE}
	if strings.HasPrefix(name, "spawn") && !s.World.Impl.SupportsSpawn {
		res.Unsupported = &mpi.ErrUnsupported{Impl: impl, Feature: "dynamic process creation"}
		return res, judge(o, res), nil
	}
	s.Register(name, prog)

	whole := resource.WholeProgram()
	err = o.span("core.enable_s", func() error {
		for _, e := range []struct {
			dst    **frontend.Series
			expect func(pperfmark.Params) float64
			metric string
		}{
			{&res.BytesSent, entry.ExpectedBytesSent, "msg_bytes_sent"},
			{&res.PutOps, entry.ExpectedPutOps, "rma_put_ops"},
			{&res.GetOps, entry.ExpectedGetOps, "rma_get_ops"},
			{&res.AccOps, entry.ExpectedAccOps, "rma_acc_ops"},
			{&res.RMABytes, entry.ExpectedRMABytes, "rma_bytes"},
		} {
			if e.expect == nil {
				continue
			}
			sr, err := s.Enable(e.metric, whole)
			if err != nil {
				return err
			}
			*e.dst = sr
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := o.span("core.launch_s", func() error { return s.Launch(name, params.Procs, nil) }); err != nil {
		return nil, nil, err
	}
	res.PC = consultant.New(s.FE, s.Eng, pperfmark.ScaledPCConfig())
	if err := o.span("consultant.start_s", res.PC.Start); err != nil {
		return nil, nil, err
	}

	var alloc0, allocs0 float64
	if o.traced {
		alloc0, allocs0 = memNow()
	}
	if err := o.span("core.run_s", s.Run); err != nil {
		return nil, nil, err
	}
	if o.traced {
		alloc1, allocs1 := memNow()
		o.add("core.run_alloc_mb", (alloc1-alloc0)/(1<<20))
		o.add("core.run_allocs_m", (allocs1-allocs0)/1e6)
		sink.addTo(o)
	}
	res.RunTime = s.Eng.Now()
	res.ProbeExecs = s.ProbeExecutions()
	res.Coverage = s.FE.Coverage()
	o.add("probe.executions", float64(res.ProbeExecs))
	return res, judge(o, res), nil
}

// judge renders the Consultant's report and judges the result, the
// analyst-facing end of a diagnosis.
func judge(o *op, res *pperfmark.Result) *pperfmark.Verdict {
	if res.PC != nil {
		o.span("consultant.render_s", func() error {
			_ = res.PC.Render() // timed for its cost; the verdict reads the findings directly
			return nil
		})
		tested, trueN, pruned := res.PC.Stats()
		o.add("consultant.tested", float64(tested))
		o.add("consultant.true", float64(trueN))
		o.add("consultant.pruned", float64(pruned))
	}
	o.add("sim.virtual_s", res.RunTime.Seconds())
	var v *pperfmark.Verdict
	o.span("pperfmark.judge_s", func() error {
		v = pperfmark.Judge(res)
		return nil
	})
	return v
}

// The perfdb-history fixture has the store shape of `make trend-golden`:
// three healthy big-message seeds, then two behind a degraded link.
const (
	perfdbHealthy  = 3
	perfdbDegraded = 2
	perfdbFault    = "t=0s degrade-link * bw=0.5"
)

// fixtureRun is one recorded run: its archive, its label and the verdict
// the live Consultant exported.
type fixtureRun struct {
	archive *session.Archive
	label   string
	verdict string
	events  int
	sink    *countingSink // traced runs only
}

// recordFixture records the perfdb-history runs into a throwaway store
// with the streaming recorder, as `pperf -db` does, and loads them back.
func recordFixture(e env) ([]fixtureRun, error) {
	st, err := perfdb.Open(filepath.Join(e.workDir, "fixture"))
	if err != nil {
		return nil, err
	}
	var runs []fixtureRun
	for i := 0; i < perfdbHealthy+perfdbDegraded; i++ {
		seed := e.seed + uint64(i)
		opt := pperfmark.RunOptions{Impl: mpi.LAM, Seed: seed}
		label := fmt.Sprintf("healthy-%d", seed)
		if i >= perfdbHealthy {
			if opt.Faults, err = faults.Parse(perfdbFault); err != nil {
				return nil, err
			}
			label = fmt.Sprintf("degraded-%d", seed)
		}
		rec, err := st.NewRecorder()
		if err != nil {
			return nil, err
		}
		fr := fixtureRun{label: label}
		opt.Record = rec
		if e.traced {
			fr.sink = newCountingSink(rec)
			opt.Record = fr.sink
		}
		res, err := pperfmark.Run("big-message", opt)
		if err != nil {
			st.Discard(rec)
			return nil, fmt.Errorf("record %s: %w", label, err)
		}
		fr.verdict = res.PC.Export().String()
		fr.events = rec.EventCount()
		// The store is fresh, so the label-collision warning cannot arise.
		m, _, err := st.Commit(rec, perfdb.AddMeta{Label: label, Verdict: fr.verdict})
		if err != nil {
			return nil, fmt.Errorf("commit %s: %w", label, err)
		}
		if fr.archive, err = st.Load(m.ID); err != nil {
			return nil, err
		}
		runs = append(runs, fr)
	}
	return runs, nil
}

func preparePerfDB(e env) (func(o *op), error) {
	runs, err := recordFixture(e)
	if err != nil {
		return nil, err
	}
	n := 0
	return func(o *op) {
		n++
		dir := filepath.Join(e.workDir, fmt.Sprintf("op%d", n))
		defer os.RemoveAll(dir)
		perfdbOp(o, runs, dir)
	}, nil
}

// perfdbOp ingests the fixture into a fresh store, pushes it to a second
// store over one sync server, replays and judges every run, then diffs
// healthy against degraded and fits the trend.
func perfdbOp(o *op, runs []fixtureRun, dir string) {
	var a, b *perfdb.Store
	err := o.span("perfdb.open_store_s", func() (err error) {
		if a, err = perfdb.Open(filepath.Join(dir, "a")); err != nil {
			return err
		}
		b, err = perfdb.Open(filepath.Join(dir, "b"))
		return err
	})
	if err != nil {
		o.fail("open stores: %v", err)
		return
	}
	var srv *perfdb.SyncServer
	if err := o.span("perfdb.serve_s", func() (err error) {
		srv, err = perfdb.Serve(b, "127.0.0.1:0")
		return err
	}); err != nil {
		o.fail("serve: %v", err)
		return
	}
	defer srv.Close()

	// Store: the write path, then the push.
	metas := make([]perfdb.RunMeta, len(runs))
	for i, r := range runs {
		err := o.span("perfdb.add_s", func() (err error) {
			metas[i], err = a.AddArchive(r.archive, perfdb.AddMeta{Label: r.label, Verdict: r.verdict})
			return err
		})
		if err != nil {
			o.fail("add %s: %v", r.label, err)
			return
		}
		o.pass()
		o.add("perfdb.archive_bytes", float64(metas[i].Bytes))
		o.add("perfdb.events", float64(r.events))
		if r.sink != nil {
			r.sink.addTo(o)
		}
	}
	push := func(m perfdb.RunMeta, wantDedupe bool) bool {
		var res *perfdb.PushResult
		err := o.span("perfdb.push_s", func() (err error) {
			res, err = perfdb.Push(a, m.ID, srv.Addr(), perfdb.DefaultSyncConfig())
			return err
		})
		switch {
		case err != nil:
			o.fail("push %s: %v", m.ID, err)
		case res.Deduped != wantDedupe:
			o.fail("push %s: deduped=%v, want %v", m.ID, res.Deduped, wantDedupe)
		default:
			o.pass()
			return true
		}
		return false
	}
	for _, m := range metas {
		if !push(m, false) {
			return
		}
	}
	if !push(metas[0], true) {
		return
	}
	o.add("wire.frames", float64(srv.Frames()))
	o.add("wire.duplicate_frames", float64(srv.DuplicateFrames()))

	// Diagnose: the read path, replay and judgement of every stored run.
	for _, m := range metas {
		var arch *session.Archive
		if err := o.span("perfdb.load_s", func() (err error) {
			arch, err = a.Load(m.ID)
			return err
		}); err != nil {
			o.fail("load %s: %v", m.ID, err)
			return
		}
		var res *pperfmark.Result
		if err := o.span("pperfmark.replay_s", func() (err error) {
			res, err = pperfmark.Replay(arch)
			return err
		}); err != nil {
			o.fail("replay %s: %v", m.ID, err)
			return
		}
		v := judge(o, res)
		switch {
		case !v.Pass:
			o.fail("replay %s: verdict not Pass: %s", m.ID, strings.Join(v.Problems, "; "))
		case res.PC.Export().String() != m.Verdict:
			o.fail("replay %s: findings differ from the live run's", m.ID)
		default:
			o.pass()
		}
	}

	// Query: materialize every run, diff, trend.
	views := make([]*perfdb.RunView, len(metas))
	for i, m := range metas {
		if err := o.span("perfdb.open_s", func() (err error) {
			views[i], err = a.OpenRun(m.ID)
			return err
		}); err != nil {
			o.fail("open %s: %v", m.ID, err)
			return
		}
	}
	var diff *perfdb.DiffReport
	err = o.span("perfdb.compare_s", func() (err error) {
		diff, err = perfdb.Compare(views[perfdbHealthy-1], views[perfdbHealthy], perfdb.CompareOptions{})
		return err
	})
	switch {
	case err != nil:
		o.fail("compare: %v", err)
	case len(diff.Regressions()) == 0:
		o.fail("compare %s vs %s: no REGRESSION", metas[perfdbHealthy-1].ID, metas[perfdbHealthy].ID)
	default:
		o.pass()
	}
	var tr *perfdb.TrendReport
	err = o.span("perfdb.trend_s", func() (err error) {
		tr, err = perfdb.Trend(views, perfdb.TrendOptions{Alpha: 0.1})
		return err
	})
	firstBad := metas[perfdbHealthy].ID
	switch {
	case err != nil:
		o.fail("trend: %v", err)
	case !driftsUpFrom(tr, firstBad):
		o.fail("trend: no DRIFTING-UP series with first-bad %s", firstBad)
	default:
		o.pass()
	}
}

// driftsUpFrom reports whether the trend's top-ranked drifting series is
// DRIFTING-UP with its changepoint at run id.
func driftsUpFrom(tr *perfdb.TrendReport, id string) bool {
	d := tr.Drifting()
	return len(d) > 0 && d[0].Verdict == perfdb.TrendUp && d[0].FirstBad == id
}
