package wire_test

// Cross-stack equivalence: one fault plan, every channel. The report
// transport's control and bulk channels, the in-process FlakyTransport and
// the PerfDB sync client all consult a wire.Injection, so the same
// drop-transport budget must produce the identical resilience accounting —
// same retries, same injected-drop count, same backoff-schedule length, no
// failures — on every channel, reported through the one shared wire.Stats
// block. Budgets add up on every channel alike: a plan that splits each
// clause in two must account exactly as the single-clause plan does.

import (
	"reflect"
	"testing"
	"time"

	"pperf/internal/daemon"
	"pperf/internal/faults"
	"pperf/internal/frontend"
	"pperf/internal/perfdb"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

const equivalencePlan = "seed=42; " +
	"t=0s drop-transport node0 n=2; " +
	"t=0s drop-transport node0 n=2 chan=bulk; " +
	"t=0s drop-transport node0 n=2 chan=sync"

// splitPlan is equivalencePlan with every n=2 clause split into two n=1
// clauses at the same instant.
const splitPlan = "seed=42; " +
	"t=0s drop-transport node0 n=1; t=0s drop-transport node0 n=1; " +
	"t=0s drop-transport node0 n=1 chan=bulk; t=0s drop-transport node0 n=1 chan=bulk; " +
	"t=0s drop-transport node0 n=1 chan=sync; t=0s drop-transport node0 n=1 chan=sync"

func TestCrossStackFaultPlanEquivalence(t *testing.T) {
	single := planAccounting(t, equivalencePlan)
	for ch, st := range single {
		if ch == "flaky/ctl" || ch == "flaky/bulk" {
			// No retry loop in-process: the daemon's outbox or bulk queue
			// re-sends, so only the injected drops are accounted.
			if st.InjectedDrops != 2 {
				t.Errorf("%s: injected=%d, want 2", ch, st.InjectedDrops)
			}
			continue
		}
		if st.Retries != 2 || st.InjectedDrops != 2 || len(st.Backoffs) != 2 {
			t.Errorf("%s: retries=%d injected=%d backoffs=%d, want 2/2/2",
				ch, st.Retries, st.InjectedDrops, len(st.Backoffs))
		}
		if st.Failures != 0 || st.Duplicates != 0 || st.StaleFrames != 0 {
			t.Errorf("%s: failures=%d dups=%d stale=%d, want all 0",
				ch, st.Failures, st.Duplicates, st.StaleFrames)
		}
		if st.Frames == 0 {
			t.Errorf("%s: no frames delivered despite retry budget", ch)
		}
	}

	// Split clauses add up to the same budget on every channel: the
	// accounting, backoff schedule included, is identical.
	split := planAccounting(t, splitPlan)
	for ch, want := range single {
		if got := split[ch]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: split-clause plan accounts %+v, single-clause plan %+v", ch, got, want)
		}
	}

	// Receiver side: the same replayed frame sequence through each
	// channel's dedupe label yields identical per-channel accounting —
	// one window engine, three labels.
	d := wire.NewDedupe(0)
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk, wire.ChanSync} {
		d.Seen("peer", ch, 1, 1)
		d.Seen("peer", ch, 1, 2)
		d.Seen("peer", ch, 1, 2) // replay after a lost ack
		d.Seen("peer", ch, 2, 1) // respawned sender
		d.Seen("peer", ch, 1, 3) // dead-incarnation straggler
	}
	want := wire.Stats{Duplicates: 1, StaleFrames: 1}
	for _, ch := range []string{wire.ChanCtl, wire.ChanBulk, wire.ChanSync} {
		got := d.ChannelStats(ch)
		if got.Duplicates != want.Duplicates || got.StaleFrames != want.StaleFrames {
			t.Errorf("%s dedupe stats = %+v, want %+v", ch, got, want)
		}
	}
}

// planAccounting arms every channel from the plan text, pushes one frame
// through each, and returns each channel's sender-side wire.Stats keyed
// "tcp/ctl", "tcp/bulk", "flaky/ctl", "flaky/bulk" and "sync".
func planAccounting(t *testing.T, text string) map[string]wire.Stats {
	t.Helper()
	plan, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wire.Config{
		MsgTimeout:  500 * time.Millisecond,
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        plan.Seed,
	}
	// arm applies the plan's ctl/bulk clauses the way the live session's
	// DropTransport hook does.
	arm := func(ctl, bulk func(n int)) {
		for _, f := range plan.Faults {
			if f.Kind != faults.DropTransport {
				continue
			}
			switch f.Chan {
			case "", faults.ChanCtl:
				ctl(f.N)
			case faults.ChanBulk:
				bulk(f.N)
			case faults.ChanBoth:
				ctl(f.N)
				bulk(f.N)
			}
		}
	}
	up := daemon.Update{Kind: daemon.UpHeartbeat}
	sh := trace.Shard{Proc: "p0", Node: "node0", Spans: []trace.Span{{Name: "compute"}}}

	// ctl + bulk over TCP.
	fe := frontend.New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := frontend.DialTransport(l.Addr(), "paradynd@node0", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	arm(tr.InjectFailures, tr.InjectBulkFailures)
	if err := tr.Update(up); err != nil {
		t.Fatalf("ctl send under plan: %v", err)
	}
	if err := tr.BulkShard(sh); err != nil {
		t.Fatalf("bulk send under plan: %v", err)
	}

	// ctl + bulk in-process: every send fails until the budget is spent,
	// as the daemon's outbox and bulk queue would keep re-sending.
	ft := &faults.FlakyTransport{Inner: frontend.New()}
	arm(ft.InjectFailures, ft.InjectBulkFailures)
	for i := 0; ft.Update(up) != nil; i++ {
		if i > 10 {
			t.Fatal("in-process ctl budget never drained")
		}
	}
	for i := 0; ft.BulkShard(sh) != nil; i++ {
		if i > 10 {
			t.Fatal("in-process bulk budget never drained")
		}
	}
	flaky := ft.WireStats()

	// sync: the same plan handed to the sync client, which arms its own
	// wire injection point from the chan=sync clauses.
	remote, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := perfdb.Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	local, err := perfdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scfg := perfdb.SyncConfig{Config: cfg, Faults: plan}
	_, syncStats, err := perfdb.Pull(local, srv.Addr(), "", scfg)
	if err != nil {
		t.Fatalf("sync under plan: %v", err)
	}

	return map[string]wire.Stats{
		"tcp/ctl":    tr.Stats(),
		"tcp/bulk":   tr.BulkStats(),
		"flaky/ctl":  flaky[wire.ChanCtl],
		"flaky/bulk": flaky[wire.ChanBulk],
		"sync":       *syncStats,
	}
}
