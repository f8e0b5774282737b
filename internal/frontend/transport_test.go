package frontend

import (
	"encoding/gob"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"pperf/internal/daemon"
	"pperf/internal/resource"
	"pperf/internal/sim"
	"pperf/internal/wire"
)

// testWireConfig keeps wall-clock waits negligible in tests.
func testWireConfig() wire.Config {
	return wire.Config{
		MsgTimeout:  500 * time.Millisecond,
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        42,
	}
}

func TestTCPTransportDeliversThroughInjectedFailures(t *testing.T) {
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
	if err := tr.Update(daemon.Update{Kind: daemon.UpAddResource, Path: "/Machine/node0/p0", Time: 1}); err != nil {
		t.Fatalf("update after injected failures: %v", err)
	}
	if err := tr.Update(daemon.Update{Kind: daemon.UpCallEdge, Caller: "a", Callee: "b"}); err != nil {
		t.Fatal(err)
	}

	if fe.Hierarchy().FindPath("/Machine/node0/p0") == nil {
		t.Error("update not applied")
	}
	if !fe.IsCallee("b") {
		t.Error("second update not applied")
	}
	st := tr.Stats()
	if st.Frames != 2 || st.Retries < 2 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.Backoffs) < 2 {
		t.Errorf("backoffs not recorded: %+v", st.Backoffs)
	}
}

func TestTCPTransportGivesUpAfterMaxAttempts(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	cfg := testWireConfig()
	cfg.MaxAttempts = 2
	tr, err := DialTransport(l.Addr(), "paradynd@node0", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tr.InjectFailures(cfg.MaxAttempts)
	if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if st := tr.Stats(); st.Failures != 1 || st.InjectedDrops != int64(cfg.MaxAttempts) {
		t.Errorf("stats = %+v", st)
	}
	// The exhausted frame spent the whole budget; the next send succeeds
	// again (outbox-replay scenario).
	if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
}

func TestListenerDedupesReplayedFrames(t *testing.T) {
	fe := New()
	f := resource.WholeProgram()
	fe.RegisterSeries("m", f)
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	msg := wireMsg{
		Daemon:  "paradynd@node0",
		Seq:     1,
		Samples: []daemon.Sample{sample("m", f, "p0", sim.Time(sim.Second), 5)},
	}
	var ack bool
	// A daemon that lost the ack re-sends the same frame after reconnecting;
	// the listener must ack it again without re-applying.
	for i := 0; i < 2; i++ {
		if err := enc.Encode(&msg); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	if got := fe.Series("m", f).Total(); got != 5 {
		t.Errorf("total = %v, want 5 (replay applied twice?)", got)
	}
	if l.Duplicates() != 1 {
		t.Errorf("duplicates = %d, want 1", l.Duplicates())
	}
}

func TestBackoffScheduleDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		fe := New()
		l, err := fe.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cfg := testWireConfig()
		cfg.Seed = seed
		tr, err := DialTransport(l.Addr(), "d", 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.InjectFailures(3)
		if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); err != nil {
			t.Fatal(err)
		}
		return tr.Stats().Backoffs
	}
	a, b := run(7), run(7)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("backoffs: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed, different backoff[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

// fakeListener scripts Accept results: a sequence of transient errors, then
// closure.
type fakeListener struct {
	mu     sync.Mutex
	errs   []error
	closed chan struct{}
	once   sync.Once
}

func (f *fakeListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	if len(f.errs) > 0 {
		e := f.errs[0]
		f.errs = f.errs[1:]
		f.mu.Unlock()
		return nil, e
	}
	f.mu.Unlock()
	<-f.closed
	return nil, net.ErrClosed
}

func (f *fakeListener) Close() error {
	f.once.Do(func() { close(f.closed) })
	return nil
}

func (f *fakeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	fl := &fakeListener{
		errs:   []error{errors.New("accept: too many open files"), errors.New("accept: connection aborted")},
		closed: make(chan struct{}),
	}
	l := &Listener{fe: New(), ln: fl, dedupe: wire.NewDedupe(0)}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		wire.AcceptLoop(l.ln, l.isClosed, l.noteTransientAccept, &l.wg, l.handle)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for l.TransientAcceptErrors() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("transient errors retried = %d, want 2", l.TransientAcceptErrors())
		}
		time.Sleep(time.Millisecond)
	}
	// Closing ends the loop despite earlier errors.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHalfClosedSocketSurfacesErrorNotHang(t *testing.T) {
	// A server that accepts and never acknowledges: the per-message deadline
	// must surface an error instead of wedging the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c // hold the connection open, never read or write
		}
	}()

	cfg := testWireConfig()
	cfg.MsgTimeout = 50 * time.Millisecond
	cfg.MaxAttempts = 2
	tr, err := DialTransport(ln.Addr().String(), "d", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	done := make(chan error, 1)
	go func() { done <- tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("send to mute server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send hung on half-closed socket")
	}
}

func TestSendOnClosedTransportFailsFast(t *testing.T) {
	fe := New()
	l, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tr, err := DialTransport(l.Addr(), "d", 0, testWireConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if err := tr.Update(daemon.Update{Kind: daemon.UpHeartbeat}); !errors.Is(err, wire.ErrClosed) {
		t.Errorf("err = %v, want wire.ErrClosed", err)
	}
}
