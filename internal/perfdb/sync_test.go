package perfdb

// Sync-plane tests: push/pull round trips must reproduce archives byte
// for byte — on a clean network, under seeded fault plans, and across
// interrupted transfers resumed at chunk granularity.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"pperf/internal/faults"
	"pperf/internal/wire"
)

// testSyncConfig returns a client config tuned for fast tests: small
// chunks (so modest archives span many frames) and tight backoff.
func testSyncConfig() SyncConfig {
	cfg := DefaultSyncConfig()
	cfg.ChunkBytes = 512
	cfg.BaseBackoff = time.Millisecond
	cfg.MaxBackoff = 5 * time.Millisecond
	return cfg
}

// storeWithRun creates a store holding one synthetic run.
func storeWithRun(t *testing.T, seed int64, events int, label string) (*Store, RunMeta) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.AddArchive(syntheticArchive(rand.New(rand.NewSource(seed)), events), AddMeta{Label: label})
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// serveStore exposes a fresh empty store on a free loopback port.
func serveStore(t *testing.T) (*Store, *SyncServer) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return st, srv
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSyncPushPullRoundTrip is the acceptance bar: push a run to a peer,
// pull it back into a third store, and both copies must be byte-identical
// to the original; identical re-transfers are no-ops.
func TestSyncPushPullRoundTrip(t *testing.T) {
	src, m := storeWithRun(t, 1, 400, "base")
	peer, srv := serveStore(t)

	res, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if res.Deduped || res.RemoteID == "" {
		t.Fatalf("push result: %+v", res)
	}
	if res.Bytes != int64(len(want)) {
		t.Errorf("pushed %d bytes; archive is %d", res.Bytes, len(want))
	}
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("pushed archive differs from the original")
	}
	// The peer carried over the descriptive metadata and the label.
	pm, err := peer.Get("base")
	if err != nil || pm.Program != "synthetic" || pm.Hash != m.Hash {
		t.Errorf("peer meta: %+v, %v", pm, err)
	}

	// Re-pushing identical content is a dedupe no-op.
	res2, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Deduped || res2.RemoteID != res.RemoteID || res2.Bytes != 0 {
		t.Errorf("re-push: %+v; want dedupe no-op", res2)
	}

	// A third store pulls the run back down, byte-identically.
	sink, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pulls, _, err := Pull(sink, srv.Addr(), "", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pulls) != 1 || pulls[0].Skipped || pulls[0].LocalID == "" {
		t.Fatalf("pull results: %+v", pulls)
	}
	if got := mustReadFile(t, sink.RunPath(pulls[0].LocalID)); !bytes.Equal(want, got) {
		t.Fatal("pulled archive differs from the original")
	}
	if sm, err := sink.Get("base"); err != nil || sm.ID != pulls[0].LocalID {
		t.Errorf("pulled label not resolvable: %+v, %v", sm, err)
	}

	// Pulling again skips: the content is already held.
	pulls2, _, err := Pull(sink, srv.Addr(), "base", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pulls2) != 1 || !pulls2[0].Skipped {
		t.Errorf("re-pull: %+v; want skip", pulls2)
	}

	// Unknown remote runs are refused by name.
	if _, _, err := Pull(sink, srv.Addr(), "no-such-run", testSyncConfig()); err == nil {
		t.Error("pull of an unknown remote run succeeded")
	}
}

// TestSyncUnderFaultPlan shapes sync traffic with the same plan language
// the report transport uses: dropped frames and a degraded link must cost
// retries, never bytes.
func TestSyncUnderFaultPlan(t *testing.T) {
	plan, err := faults.Parse("seed=7; t=0s drop-transport client n=3 chan=sync; t=0s degrade-link * lat=1 bw=0.9")
	if err != nil {
		t.Fatal(err)
	}
	src, m := storeWithRun(t, 2, 500, "faulted")
	peer, srv := serveStore(t)

	cfg := testSyncConfig()
	cfg.Faults = plan
	cfg.Seed = plan.Seed
	cfg.MaxAttempts = 8
	res, err := Push(src, m.ID, srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retries < 3 || res.Stats.InjectedDrops < 3 {
		t.Errorf("fault plan not exercised: %+v", res.Stats)
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("archive pushed under faults differs from the original")
	}

	// Pull under the same plan: also byte-identical.
	sink, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pulls, stats, err := Pull(sink, srv.Addr(), "faulted", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries < 3 {
		t.Errorf("pull under faults: %+v", *stats)
	}
	if got := mustReadFile(t, sink.RunPath(pulls[0].LocalID)); !bytes.Equal(want, got) {
		t.Fatal("archive pulled under faults differs from the original")
	}
}

// TestSyncPushResume cuts a push mid-transfer and checks the retry picks
// up from the server's partial instead of starting over.
func TestSyncPushResume(t *testing.T) {
	src, m := storeWithRun(t, 3, 2000, "")
	peer, srv := serveStore(t)
	size := int64(len(mustReadFile(t, src.RunPath(m.ID))))

	cfg := testSyncConfig()
	cfg.ChunkBytes = 256
	cfg.MaxAttempts = 2
	chunks := 0
	cfg.FaultHook = func(op string, seq uint64, attempt int) error {
		if op != "push-chunk" {
			return nil
		}
		chunks++
		if chunks > 3 {
			return errors.New("link cut")
		}
		return nil
	}
	if _, err := Push(src, m.ID, srv.Addr(), cfg); err == nil {
		t.Fatal("push survived a permanently cut link")
	}
	partial := peer.syncDir() + "/" + m.Hash + ".partial"
	fi, err := os.Stat(partial)
	if err != nil {
		t.Fatalf("no server-side partial after the cut: %v", err)
	}
	if fi.Size() <= 0 || fi.Size() >= size {
		t.Fatalf("partial holds %d of %d bytes", fi.Size(), size)
	}

	res, err := Push(src, m.ID, srv.Addr(), testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedAt != fi.Size() {
		t.Errorf("resumed at %d; partial held %d", res.ResumedAt, fi.Size())
	}
	if res.Bytes != size-res.ResumedAt {
		t.Errorf("retransferred %d bytes; want only the missing %d", res.Bytes, size-res.ResumedAt)
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if got := mustReadFile(t, peer.RunPath(res.RemoteID)); !bytes.Equal(want, got) {
		t.Fatal("resumed push produced a different archive")
	}
	if _, err := os.Stat(partial); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed transfer left its partial behind: %v", err)
	}
}

// TestSyncPullResume: the client-side mirror of push resume.
func TestSyncPullResume(t *testing.T) {
	src, m := storeWithRun(t, 4, 2000, "")
	_, srv := serveStore(t)
	if res, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil || res.Deduped {
		t.Fatalf("seeding push: %+v, %v", res, err)
	}
	size := int64(len(mustReadFile(t, src.RunPath(m.ID))))

	sink, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSyncConfig()
	cfg.ChunkBytes = 256
	cfg.MaxAttempts = 2
	chunks := 0
	cfg.FaultHook = func(op string, seq uint64, attempt int) error {
		if op != "pull-chunk" {
			return nil
		}
		chunks++
		if chunks > 3 {
			return errors.New("link cut")
		}
		return nil
	}
	if _, _, err := Pull(sink, srv.Addr(), "", cfg); err == nil {
		t.Fatal("pull survived a permanently cut link")
	}
	partial := sink.syncDir() + "/" + m.Hash + ".partial"
	fi, err := os.Stat(partial)
	if err != nil {
		t.Fatalf("no client-side partial after the cut: %v", err)
	}
	if fi.Size() <= 0 || fi.Size() >= size {
		t.Fatalf("partial holds %d of %d bytes", fi.Size(), size)
	}

	pulls, _, err := Pull(sink, srv.Addr(), "", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pulls[0].ResumedAt != fi.Size() {
		t.Errorf("resumed at %d; partial held %d", pulls[0].ResumedAt, fi.Size())
	}
	want := mustReadFile(t, src.RunPath(m.ID))
	if got := mustReadFile(t, sink.RunPath(pulls[0].LocalID)); !bytes.Equal(want, got) {
		t.Fatal("resumed pull produced a different archive")
	}
}

// TestSyncHugeChunkBytesRejected: a chunk size past the frame limit is a
// configuration error on both push and pull, never an allocation panic.
func TestSyncHugeChunkBytesRejected(t *testing.T) {
	src, m := storeWithRun(t, 4, 50, "base")
	peer, srv := serveStore(t)
	cfg := testSyncConfig()
	cfg.ChunkBytes = 1 << 62
	if _, err := Push(src, m.ID, srv.Addr(), cfg); err == nil {
		t.Error("push with a 2^62-byte chunk size succeeded")
	}
	if _, _, err := Pull(src, srv.Addr(), "", cfg); err == nil {
		t.Error("pull with a 2^62-byte chunk size succeeded")
	}
	if runs := peer.Runs(); len(runs) != 0 {
		t.Errorf("peer holds %d runs after rejected push, want 0", len(runs))
	}
}

// TestSyncPullLabelCollision: a pulled run whose label is already taken
// locally lands unlabeled with a warning — never an error, never a
// clobbered local run.
func TestSyncPullLabelCollision(t *testing.T) {
	src, m := storeWithRun(t, 5, 300, "base")
	_, srv := serveStore(t)
	if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil {
		t.Fatal(err)
	}
	// The sink already owns the label with different content.
	sink, local := storeWithRun(t, 6, 100, "base")
	pulls, _, err := Pull(sink, srv.Addr(), "", testSyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pulls) != 1 || pulls[0].Skipped {
		t.Fatalf("pull results: %+v", pulls)
	}
	if pulls[0].Warning == "" || !strings.Contains(pulls[0].Warning, "collides") {
		t.Errorf("warning %q; want a label-collision note", pulls[0].Warning)
	}
	got, err := sink.Get(pulls[0].LocalID)
	if err != nil || got.Label != "" {
		t.Errorf("ingested run: %+v, %v; want unlabeled", got, err)
	}
	if owner, err := sink.Get("base"); err != nil || owner.ID != local.ID {
		t.Errorf("local label owner changed: %+v, %v", owner, err)
	}
}

// TestSyncServerUploadLocksReaped is the regression test for the server's
// once-unbounded per-hash upload-lock map: after any amount of push churn —
// fresh hashes, dedupe re-pushes, and a transfer cut mid-flight — the lock
// table must return to empty, not grow one mutex per hash forever.
func TestSyncServerUploadLocksReaped(t *testing.T) {
	_, srv := serveStore(t)
	for i := 0; i < 4; i++ {
		src, m := storeWithRun(t, int64(10+i), 150, fmt.Sprintf("churn-%d", i))
		if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil {
			t.Fatal(err)
		}
		// Dedupe re-push of the same content exercises the lock again.
		if _, err := Push(src, m.ID, srv.Addr(), testSyncConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// A push cut mid-transfer leaves a partial on disk — but no lock entry.
	src, m := storeWithRun(t, 20, 2000, "")
	cfg := testSyncConfig()
	cfg.ChunkBytes = 256
	cfg.MaxAttempts = 2
	chunks := 0
	cfg.FaultHook = func(op string, seq uint64, attempt int) error {
		if op == "push-chunk" {
			if chunks++; chunks > 3 {
				return errors.New("link cut")
			}
		}
		return nil
	}
	if _, err := Push(src, m.ID, srv.Addr(), cfg); err == nil {
		t.Fatal("push survived a permanently cut link")
	}
	// The server handler may still be draining its last frame; give it a
	// moment to quiesce before asserting steady state.
	deadline := time.Now().Add(2 * time.Second)
	for srv.UploadLocks() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.UploadLocks(); got != 0 {
		t.Errorf("upload locks at steady state = %d, want 0", got)
	}
}

// TestSyncChunkReplayIdempotent drives the server's chunk handler
// directly: replayed frames (lost acks) and gapped frames (swept
// partials) are answered with the authoritative offset, never
// double-applied.
func TestSyncChunkReplayIdempotent(t *testing.T) {
	_, srv := serveStore(t)
	hash := strings.Repeat("ab", 32)
	if resp := srv.pushBegin(&syncReq{Hash: hash, Size: 64}); !resp.OK || resp.Offset != 0 {
		t.Fatalf("push-begin: %+v", resp)
	}
	payload := []byte("0123456789abcdef")
	req := &syncReq{Op: opPushChunk, Hash: hash, Offset: 0, Data: payload, CRC: wire.Checksum(payload)}
	if resp := srv.pushChunk(req); !resp.OK || resp.Offset != 16 {
		t.Fatalf("first chunk: %+v", resp)
	}
	// Exact replay: absorbed, authoritative offset returned.
	if resp := srv.pushChunk(req); !resp.OK || resp.Offset != 16 {
		t.Fatalf("replayed chunk: %+v", resp)
	}
	if srv.DuplicateFrames() != 1 {
		t.Errorf("duplicate frames: %d; want 1", srv.DuplicateFrames())
	}
	// A gap (client ahead of the server): rewind, don't corrupt.
	gap := &syncReq{Op: opPushChunk, Hash: hash, Offset: 32, Data: payload, CRC: wire.Checksum(payload)}
	if resp := srv.pushChunk(gap); !resp.OK || resp.Offset != 16 {
		t.Fatalf("gapped chunk: %+v", resp)
	}
	// Transit corruption is refused per frame.
	bad := &syncReq{Op: opPushChunk, Hash: hash, Offset: 16, Data: payload, CRC: req.CRC + 1}
	if resp := srv.pushChunk(bad); resp.OK || !strings.Contains(resp.Err, "CRC") {
		t.Fatalf("corrupt chunk accepted: %+v", resp)
	}
	// Bad content addresses never touch the filesystem.
	if resp := srv.pushBegin(&syncReq{Hash: "../../etc/passwd", Size: 1}); resp.OK {
		t.Fatal("path-traversal hash accepted")
	}
}
