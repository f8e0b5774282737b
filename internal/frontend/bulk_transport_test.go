package frontend

// Tests for the dedicated bulk trace-streaming channel of the TCP transport:
// shard frames must never ride the control stream, each channel keeps its own
// sequence space and dedupe state, and injected bulk faults must leave the
// control path untouched while retry/backoff delivers every shard.

import (
	"testing"

	"pperf/internal/daemon"
	"pperf/internal/sim"
	"pperf/internal/trace"
)

func TestBulkChannelCarriesShardsOffControlPath(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := DialTransport(l.Addr(), "paradynd@node0", 0, testWireConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if err := tr.Update(daemon.Update{Kind: daemon.UpAddResource, Path: "/Machine/node0/p0"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); err != nil {
		t.Fatal(err)
	}
	sh := trace.Shard{Proc: "p0", Node: "node0", Spans: []trace.Span{{Name: "compute", Start: sim.Time(1)}}}
	for i := 0; i < 2; i++ {
		if err := tr.BulkShard(sh); err != nil {
			t.Fatal(err)
		}
	}

	if got := l.CtlShardFrames(); got != 0 {
		t.Errorf("shard frames on the control channel = %d, want 0", got)
	}
	if got := l.CtlFrames(); got != 2 {
		t.Errorf("control frames = %d, want 2 (the updates)", got)
	}
	if got := l.BulkFrames(); got != 2 {
		t.Errorf("bulk frames = %d, want 2 (the shards)", got)
	}
	// Both channels numbered their first frame Seq 1; per-(daemon,channel)
	// dedupe must not confuse them.
	if got := l.Duplicates(); got != 0 {
		t.Errorf("cross-channel frames misread as duplicates: %d", got)
	}
	tl := fe.Timeline()
	if tl == nil || len(tl.ProcSpans("p0")) != 2 {
		t.Errorf("shards not merged into the timeline: %+v", tl)
	}
}

func TestBulkFaultsLeaveControlFlowing(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := DialTransport(l.Addr(), "paradynd@node0", 0, testWireConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.InjectBulkFailures(2)
	sh := trace.Shard{Proc: "p0", Node: "node0", Spans: []trace.Span{{Name: "compute"}}}
	if err := tr.BulkShard(sh); err != nil {
		t.Fatalf("bulk send should survive injected faults via retry: %v", err)
	}
	if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); err != nil {
		t.Fatal(err)
	}

	bst := tr.BulkStats()
	if bst.Frames != 1 || bst.Retries < 2 {
		t.Errorf("bulk stats = %+v, want Frames 1 with ≥2 retries", bst)
	}
	cst := tr.Stats()
	if cst.Frames != 1 || cst.Retries != 0 {
		t.Errorf("control stats = %+v — bulk faults leaked into the control channel", cst)
	}
	if len(fe.Timeline().ProcSpans("p0")) != 1 {
		t.Error("shard lost despite retry budget")
	}
}

func TestControlFaultsLeaveBulkFlowing(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := DialTransport(l.Addr(), "paradynd@node0", 0, testWireConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.InjectFailures(2)
	if err := tr.BulkShard(trace.Shard{Proc: "p0", Node: "node0", Spans: make([]trace.Span, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := tr.BulkStats().Retries; got != 0 {
		t.Errorf("control faults leaked into the bulk channel: %d retries", got)
	}
	if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); err != nil {
		t.Fatalf("control send should survive via retry: %v", err)
	}
	if got := tr.Stats().Retries; got < 2 {
		t.Errorf("control retries = %d, want ≥2", got)
	}
}
