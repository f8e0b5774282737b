package frontend

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"pperf/internal/daemon"
	"pperf/internal/trace"
	"pperf/internal/wire"
)

// The TCP transport carries daemon reports to the front end over real
// sockets with gob encoding — the shape of a deployment where daemons run on
// cluster nodes and the front end on the user's workstation. Each message is
// acknowledged before the daemon proceeds, so delivery order (and therefore
// front-end state) stays deterministic even though the listener runs on its
// own goroutine.
//
// Each daemon holds up to two independent channels to the front end:
//
//   - the control channel carries sample batches and resource updates — the
//     latency-sensitive sampling path;
//   - the bulk channel (dialed lazily on the first trace shard) carries
//     trace.Shard traffic, so arbitrarily large trace volume never queues
//     behind — or delays — a sample batch.
//
// Both channels are wire.Conns (see internal/wire): every message carries
// the sending daemon's identity, its channel, and a per-channel sequence
// number, each send has a wall-clock deadline, failures trigger bounded
// seeded-jitter retry with a reconnect, and the front end dedupes replayed
// messages per (daemon, channel) — so an ack lost to a half-closed socket
// cannot double-apply a sample batch or a shard, and a reconnect resyncs
// without disturbing determinism. This file owns only what the frames mean;
// the reliability discipline lives in the wire plane.

// Channel labels stamped on wire frames. The control channel uses the empty
// string so pre-bulk-channel captures decode (and dedupe) unchanged.
const (
	ctlChannel  = ""
	bulkChannel = wire.ChanBulk
)

// wireMsg is the single message frame exchanged on the wire.
type wireMsg struct {
	// Daemon, Chan and Seq identify and order the frame for reconnect
	// dedupe. Seq is per-daemon-per-channel and strictly increasing; Seq 0
	// (legacy senders) bypasses dedupe.
	Daemon string
	Chan   string
	Seq    uint64
	// Inc is the sending daemon incarnation. A frame from an incarnation
	// older than the newest one seen is a straggler from a dead daemon:
	// the listener acknowledges it (so the sender unblocks) but never
	// applies it. A newer incarnation resets the channel's seq space. Inc
	// 0 (legacy senders) keeps pure-seq dedupe.
	Inc uint64

	Samples []daemon.Sample
	Update  *daemon.Update
	Shard   *trace.Shard
}

// Listener accepts daemon connections for a front end. Control and bulk
// connections land on the same listening socket; frames declare their
// channel, and dedupe state is kept per (daemon, channel) in a bounded
// wire.Dedupe window table.
type Listener struct {
	fe *FrontEnd
	ln net.Listener
	wg sync.WaitGroup

	// dedupe fences replays and dead-incarnation stragglers per
	// (daemon, channel); its window table is bounded, so a long-lived
	// listener fed ever-fresh daemon identities reaches a steady state.
	dedupe *wire.Dedupe

	// readTimeout bounds the wait for each incoming frame; a peer that
	// connects and then wedges is dropped instead of parking the handler
	// goroutine forever. Healthy-but-idle daemons that get dropped simply
	// redial on their next send (gob streams are per-connection, and the
	// dedupe layer absorbs any replays).
	readTimeout time.Duration

	mu           sync.Mutex
	closed       bool
	readTimeouts int64
	acceptE      int64 // transient accept errors retried
	ctlFrames    int64
	bulkFrames   int64
	ctlShards    int64 // shard frames that arrived on the control channel (should stay 0)
}

// Listen starts a TCP listener feeding the front end. Use addr "127.0.0.1:0"
// to pick a free port; Addr reports the chosen address.
func (fe *FrontEnd) Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: listen: %w", err)
	}
	l := &Listener{
		fe: fe, ln: ln,
		dedupe:      wire.NewDedupe(0),
		readTimeout: wire.DefaultReadTimeout,
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		wire.AcceptLoop(l.ln, l.isClosed, l.noteTransientAccept, &l.wg, l.handle)
	}()
	return l, nil
}

// SetReadTimeout adjusts the per-frame read deadline (0 disables it).
// Affects connections accepted after the call.
func (l *Listener) SetReadTimeout(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.readTimeout = d
}

// Addr returns the listening address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting and waits for connection handlers to finish.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// Duplicates returns how many replayed frames the dedupe layer skipped.
func (l *Listener) Duplicates() int64 { return l.dedupe.Duplicates() }

// StaleIncarnationFrames returns how many frames were fenced out because
// they came from a dead daemon incarnation.
func (l *Listener) StaleIncarnationFrames() int64 { return l.dedupe.StaleFrames() }

// ReadTimeouts returns how many connections the per-frame read deadline
// dropped.
func (l *Listener) ReadTimeouts() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readTimeouts
}

// TransientAcceptErrors returns how many Accept errors were retried.
func (l *Listener) TransientAcceptErrors() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acceptE
}

// CtlFrames returns how many frames arrived on the control channel.
func (l *Listener) CtlFrames() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctlFrames
}

// BulkFrames returns how many frames arrived on the bulk channel.
func (l *Listener) BulkFrames() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bulkFrames
}

// CtlShardFrames returns how many trace-shard frames arrived on the control
// channel — the invariant the bulk channel exists to keep at zero, asserted
// by tests and benchmarks.
func (l *Listener) CtlShardFrames() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctlShards
}

// WireStats returns the listener-side wire counters for one channel
// (wire.ChanCtl or wire.ChanBulk): frames received plus the dedupe layer's
// duplicate/stale accounting.
func (l *Listener) WireStats(ch string) wire.Stats {
	s := l.dedupe.ChannelStats(ch)
	l.mu.Lock()
	defer l.mu.Unlock()
	if ch == wire.ChanBulk {
		s.Frames = l.bulkFrames
	} else {
		s.Frames = l.ctlFrames
		s.ReadTimeouts = l.readTimeouts
	}
	return s
}

func (l *Listener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *Listener) noteTransientAccept() {
	l.mu.Lock()
	l.acceptE++
	l.mu.Unlock()
}

// seen counts the frame for its channel and reports (via the wire dedupe
// table) whether it must be skipped — either a replay the front end already
// applied, or a straggler from a dead daemon incarnation. A frame from a
// newer incarnation resets the channel's seq space: the respawned daemon
// numbers its frames from 1 again.
func (l *Listener) seen(daemonName, ch string, inc, seq uint64) bool {
	l.mu.Lock()
	if ch == bulkChannel {
		l.bulkFrames++
	} else {
		l.ctlFrames++
	}
	l.mu.Unlock()
	return l.dedupe.Seen(daemonName, ch, inc, seq)
}

func (l *Listener) handle(conn net.Conn) {
	l.mu.Lock()
	readTimeout := l.readTimeout
	l.mu.Unlock()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var msg wireMsg
		if timedOut, err := wire.ReadFrame(conn, dec, readTimeout, &msg); err != nil {
			if timedOut {
				// Wedged (or merely idle) peer: drop the connection
				// instead of parking this goroutine forever. A live
				// daemon redials on its next send and the dedupe layer
				// absorbs any replays.
				l.mu.Lock()
				l.readTimeouts++
				l.mu.Unlock()
			}
			return
		}
		if msg.Shard != nil && msg.Chan != bulkChannel {
			l.mu.Lock()
			l.ctlShards++
			l.mu.Unlock()
		}
		// A frame the daemon re-sent after a lost ack was already applied —
		// and one a dead incarnation sent must never apply. Both are still
		// acknowledged so the sender unblocks.
		if !l.seen(msg.Daemon, msg.Chan, msg.Inc, msg.Seq) {
			if msg.Samples != nil {
				l.fe.Samples(msg.Samples)
			}
			if msg.Update != nil {
				l.fe.Update(*msg.Update)
			}
			if msg.Shard != nil {
				l.fe.BulkShard(*msg.Shard)
			}
		}
		if err := enc.Encode(true); err != nil { // ack
			return
		}
	}
}

// tcpChannel is one independent acknowledged gob stream to the front end: a
// wire.Conn plus the identity (daemon name, channel label, incarnation) it
// stamps on every frame and the channel's fault-injection point. The
// control and bulk channels of a TCPTransport are two of these, locked
// separately inside their Conns so a slow bulk send never blocks a sample
// send.
type tcpChannel struct {
	label string
	name  string
	inc   uint64
	conn  *wire.Conn
	inj   *wire.Injection
}

// send delivers one frame on channel c through the wire plane's retrying
// Exchange, consulting the channel's injection point before each attempt.
func (c *tcpChannel) send(msg wireMsg) error {
	var ack bool
	return c.conn.Exchange(wire.Request{
		Req: &msg,
		Stamp: func(seq uint64) {
			msg.Daemon = c.name
			msg.Chan = c.label
			msg.Inc = c.inc
			msg.Seq = seq
		},
		Resp:  &ack,
		Fault: func(int) error { return c.inj.Check() },
		Label: "frontend: send",
	})
}

// TCPTransport is the daemon-side transport: it gob-encodes each report,
// waits (with a deadline) for the front end's acknowledgement, and on
// failure retries through the wire plane, redialling as needed. When every
// attempt fails the error surfaces to the daemon, whose outbox (control) or
// bulk queue (trace shards) buffers the report for later replay. Trace
// shards move on a dedicated bulk connection so the sampling path's latency
// is independent of trace volume.
type TCPTransport struct {
	addr string
	cfg  wire.Config

	ctl tcpChannel

	bulkMu sync.Mutex // guards lazy creation of bulk
	bulk   *tcpChannel
}

// DialTransport connects a daemon-side transport with explicit identity and
// retry policy. name is the daemon identity used for reconnect dedupe;
// empty disables dedupe (every frame applies). inc is the daemon
// incarnation stamped on every frame so the listener can fence out
// stragglers from dead incarnations; 0 sends legacy frames with pure-seq
// dedupe. Only the control channel is dialed here; the bulk channel comes
// up lazily on the first trace shard. The control channel draws jitter
// from the seed unsalted; the bulk channel salts it, so the two schedules
// are independent yet each deterministic.
func DialTransport(addr, name string, inc uint64, cfg wire.Config) (*TCPTransport, error) {
	t := &TCPTransport{addr: addr, cfg: cfg}
	conn, err := wire.Dial(addr, cfg, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("frontend: dial: %w", err)
	}
	t.ctl = tcpChannel{label: ctlChannel, name: name, inc: inc, conn: conn, inj: wire.NewInjection(wire.ChanCtl)}
	return t, nil
}

// bulkChan returns the bulk channel, creating (and best-effort dialing) it
// on first use.
func (t *TCPTransport) bulkChan() *tcpChannel {
	t.bulkMu.Lock()
	defer t.bulkMu.Unlock()
	if t.bulk == nil {
		t.bulk = &tcpChannel{
			label: bulkChannel, name: t.ctl.name, inc: t.ctl.inc,
			conn: wire.NewConn(t.addr, t.cfg, t.cfg.Seed^wire.SaltBulk),
			inj:  wire.NewInjection(wire.ChanBulk),
		}
		t.bulk.conn.TryDial() // a failed dial retries inside send
	}
	return t.bulk
}

// Close shuts both channels; subsequent sends fail fast.
func (t *TCPTransport) Close() error {
	err := t.ctl.conn.Close()
	t.bulkMu.Lock()
	b := t.bulk
	t.bulkMu.Unlock()
	if b != nil {
		if berr := b.conn.Close(); err == nil {
			err = berr
		}
	}
	return err
}

// Stats returns a snapshot of the control channel's resilience counters.
func (t *TCPTransport) Stats() wire.Stats { return t.ctl.conn.Stats() }

// BulkStats returns a snapshot of the bulk channel's resilience counters
// (all zero if no shard was ever sent).
func (t *TCPTransport) BulkStats() wire.Stats {
	t.bulkMu.Lock()
	b := t.bulk
	t.bulkMu.Unlock()
	if b == nil {
		return wire.Stats{}
	}
	return b.conn.Stats()
}

// InjectFailures adds n to the control channel's drop budget
// (deterministic fault injection): each failed attempt consumes one count,
// exercising timeout, retry and reconnect exactly as a flaky network
// would.
func (t *TCPTransport) InjectFailures(n int) { t.ctl.inj.AddDrops(n) }

// InjectBulkFailures is InjectFailures for the bulk channel: the next n
// shard attempts fail while control traffic flows untouched.
func (t *TCPTransport) InjectBulkFailures(n int) { t.bulkChan().inj.AddDrops(n) }

// Samples implements daemon.Transport.
func (t *TCPTransport) Samples(batch []daemon.Sample) error {
	return t.ctl.send(wireMsg{Samples: batch})
}

// Update implements daemon.Transport.
func (t *TCPTransport) Update(u daemon.Update) error {
	return t.ctl.send(wireMsg{Update: &u})
}

// BulkShard implements daemon.Transport: trace shards ride their own
// acknowledged, deduped, retrying stream — never the sampling path.
func (t *TCPTransport) BulkShard(sh trace.Shard) error {
	return t.bulkChan().send(wireMsg{Shard: &sh})
}
