package perfdb

// The PerfDB sync plane moves whole runs between stores over TCP, making
// a store the aggregation point for runs recorded on many machines:
//
//	pperf db serve  exposes a store at an address,
//	pperf db push   streams one local run to a served store,
//	pperf db pull   fetches one (or every) remote run into the local store.
//
// The wire discipline is the shared reliability plane in internal/wire —
// the same one under the daemon report transport: gob frames with
// per-connection sequence numbers, every data frame carrying a
// wire.Checksum of its payload (the same per-chunk integrity the PPDBA1
// file format uses), per-frame deadlines, and client-side retry with
// seeded jitter and a full redial on failure — a gob stream is stateful,
// so a failed connection is always replaced. Frames are offset-addressed
// and therefore idempotent: a frame replayed after a lost ack re-asserts
// bytes the peer already has, and the peer answers with its authoritative
// offset instead of double-applying — the sync plane's equivalent of the
// report transport's (daemon, channel) dedupe.
//
// Transfers are resumable at chunk granularity. An interrupted push leaves
// <dir>/sync/<hash>.partial on the server, an interrupted pull leaves the
// same on the client; the next attempt asks where the peer got to and
// continues from there. Runs are content-addressed by the SHA-256 of the
// archive file (the chunked encoding is byte-deterministic), so re-pushing
// or re-pulling an identical run is a no-op, and a completed transfer is
// verified hash-whole before it is ingested — ingest assigns a fresh local
// ID and merges the peer's descriptive metadata into the local index.
//
// Sync traffic is fault-injectable from the same plan language as the
// report transport, through the wire plane's shared injection point:
// `drop-transport NAME n=K chan=sync` fails the next K frame sends, and
// `degrade-link` applies lat= as a per-frame delay and bw= as a seeded
// per-frame failure probability (see FAULTS.md).

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pperf/internal/faults"
	"pperf/internal/wire"
)

// SyncProtoVersion versions the sync wire protocol; a server refuses a
// newer client rather than misdecoding its frames.
const SyncProtoVersion = 1

// DefaultSyncChunkBytes is the default transfer granularity — the unit of
// resume and of per-frame CRC protection.
const DefaultSyncChunkBytes = 64 << 10

// Frame ops.
const (
	opHello = iota + 1
	opList
	opPushBegin
	opPushChunk
	opPushEnd
	opPullChunk
)

func opName(op int) string {
	switch op {
	case opHello:
		return "hello"
	case opList:
		return "list"
	case opPushBegin:
		return "push-begin"
	case opPushChunk:
		return "push-chunk"
	case opPushEnd:
		return "push-end"
	case opPullChunk:
		return "pull-chunk"
	}
	return fmt.Sprintf("op(%d)", op)
}

// syncReq is the client→server frame. Every frame carries a per-connection
// sequence number; chunk frames carry a CRC of their payload so transit
// corruption is caught per frame, exactly like the archive's chunk framing.
type syncReq struct {
	Op  int
	Seq uint64

	Proto  int     // opHello: client protocol version
	ID     string  // opPullChunk: remote run ID or label
	Hash   string  // content address of the run being transferred
	Size   int64   // opPushBegin: total size; opPullChunk: max chunk bytes
	Offset int64   // chunk frames: byte offset of Data
	Data   []byte  // opPushChunk payload
	CRC    uint32  // wire.Checksum of Data
	Meta   RunMeta // opPushEnd: descriptive metadata for the ingested run
}

// syncResp is the server→client frame.
type syncResp struct {
	OK  bool
	Err string

	Proto   int       // opHello: server protocol version
	Runs    []RunMeta // opList
	Have    bool      // opPushBegin/opPushEnd: content already stored
	Offset  int64     // authoritative byte count the server holds
	Size    int64     // opPullChunk: total archive size
	Data    []byte    // opPullChunk payload
	CRC     uint32    // wire.Checksum of Data
	EOF     bool      // opPullChunk: Data reaches the end of the archive
	ID      string    // opPushBegin/opPushEnd: run ID at the server
	Warning string    // opPushEnd: label collision note etc.
}

// SyncConfig tunes the client side of Push/Pull. The embedded wire.Config
// is the retry policy: equal seeds give identical retry schedules, and the
// seed also drives the degrade-link failure draw when no plan seed
// overrides it.
type SyncConfig struct {
	wire.Config
	// ChunkBytes is the transfer granularity (0 = DefaultSyncChunkBytes;
	// at most 1 GiB).
	ChunkBytes int
	// Faults optionally shapes sync traffic from a fault plan:
	// `drop-transport NAME n=K chan=sync` fails the next K frame sends,
	// `degrade-link ... lat=L` sleeps L milliseconds before each frame, and
	// `degrade-link ... bw=B` fails each frame with seeded probability 1-B.
	// The plan's seed drives both RNG streams, so a faulted sync is
	// exactly reproducible.
	Faults *faults.Plan
	// FaultHook, when set, is consulted before every attempt; a non-nil
	// return fails that attempt. Tests use it to cut a transfer at an
	// exact frame.
	FaultHook func(op string, seq uint64, attempt int) error
}

// DefaultSyncConfig returns production-shaped sync behaviour.
func DefaultSyncConfig() SyncConfig {
	return SyncConfig{Config: wire.DefaultConfig(), ChunkBytes: DefaultSyncChunkBytes}
}

// syncClient is one retrying, reconnecting frame channel to a sync server:
// a wire.Conn plus the sync channel's fault-injection point.
type syncClient struct {
	cfg  SyncConfig
	conn *wire.Conn
	inj  *wire.Injection
}

// dialSync connects and handshakes protocol versions. The sync channel
// salts its jitter seed (wire.SaltSync) so its schedule is independent of
// the report transport's streams; a fault plan's seed overrides the
// configured one so a faulted sync is exactly reproducible.
func dialSync(addr string, cfg SyncConfig) (*syncClient, error) {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = DefaultSyncChunkBytes
	}
	if cfg.ChunkBytes > maxChunkPayload {
		return nil, fmt.Errorf("perfdb sync: chunk size %d exceeds the %d-byte frame limit", cfg.ChunkBytes, maxChunkPayload)
	}
	if cfg.MsgTimeout <= 0 {
		cfg.MsgTimeout = 2 * time.Second
	}
	seed := cfg.Seed
	if cfg.Faults != nil {
		seed = cfg.Faults.Seed
	}
	c := &syncClient{cfg: cfg, inj: wire.NewInjection(wire.ChanSync)}
	c.inj.SeedBW(seed ^ wire.SaltSync ^ wire.SaltBW)
	c.armFaults(cfg.Faults)
	conn, err := wire.Dial(addr, cfg.Config, seed^wire.SaltSync)
	if err != nil {
		return nil, fmt.Errorf("perfdb sync: dial %s: %w", addr, err)
	}
	// An injected fault means the server never saw the frame: poison the
	// connection so the next attempt redials, as a real fault would.
	conn.SetPoisonOnFault(true)
	c.conn = conn
	resp, err := c.roundTrip(syncReq{Op: opHello, Proto: SyncProtoVersion})
	if err != nil {
		c.close()
		return nil, err
	}
	if resp.Proto > SyncProtoVersion {
		c.close()
		return nil, fmt.Errorf("perfdb sync: server speaks protocol %d; this build speaks %d", resp.Proto, SyncProtoVersion)
	}
	return c, nil
}

// armFaults translates a fault plan into the wire injection point's state.
func (c *syncClient) armFaults(p *faults.Plan) {
	if p == nil {
		return
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case faults.DropTransport:
			if f.Chan == faults.ChanSync {
				c.inj.AddDrops(f.N)
			}
		case faults.DegradeLink:
			c.inj.Degrade(time.Duration(f.Lat*float64(time.Millisecond)), f.BW)
		}
	}
}

func (c *syncClient) close() { c.conn.Close() }

// stats snapshots the client's wire counters.
func (c *syncClient) stats() wire.Stats { return c.conn.Stats() }

// faultCheck consults the test hook, then the shared injection point,
// before one attempt.
func (c *syncClient) faultCheck(op string, seq uint64, attempt int) error {
	if c.cfg.FaultHook != nil {
		if err := c.cfg.FaultHook(op, seq, attempt); err != nil {
			return err
		}
	}
	return c.inj.Check()
}

// roundTrip sends one frame and waits for its response through the wire
// plane's retrying Exchange. A response that arrives with OK=false is a
// protocol-level refusal, not a transport fault, and is returned as a
// terminal error.
func (c *syncClient) roundTrip(req syncReq) (*syncResp, error) {
	var resp syncResp
	err := c.conn.Exchange(wire.Request{
		Req:   &req,
		Stamp: func(seq uint64) { req.Seq = seq },
		Resp:  &resp,
		Fault: func(attempt int) error { return c.faultCheck(opName(req.Op), req.Seq, attempt) },
		Label: "perfdb sync: " + opName(req.Op),
	})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, errors.New("perfdb sync: " + resp.Err)
	}
	return &resp, nil
}

// PushResult describes one completed push.
type PushResult struct {
	RunID     string // local run pushed
	RemoteID  string // the run's ID at the peer
	Deduped   bool   // the peer already had identical content
	ResumedAt int64  // byte offset the transfer resumed from (0 = fresh)
	Bytes     int64  // payload bytes actually transferred this invocation
	Warning   string // peer-side note (label collision, dedupe)
	Stats     wire.Stats
}

// Push streams one stored run (ID or label) to the store served at addr.
func Push(st *Store, runID, addr string, cfg SyncConfig) (*PushResult, error) {
	if err := st.EnsureHashes(); err != nil {
		return nil, err
	}
	m, err := st.Get(runID)
	if err != nil {
		return nil, err
	}
	path := st.RunPath(m.ID)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	c, err := dialSync(addr, cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	res := &PushResult{RunID: m.ID}
	begin, err := c.roundTrip(syncReq{Op: opPushBegin, Hash: m.Hash, Size: size})
	if err != nil {
		res.Stats = c.stats()
		return res, err
	}
	if begin.Have {
		res.Deduped, res.RemoteID, res.Warning, res.Stats = true, begin.ID, begin.Warning, c.stats()
		return res, nil
	}
	res.ResumedAt = begin.Offset
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	offset := begin.Offset
	buf := make([]byte, min(int64(c.cfg.ChunkBytes), size))
	// The server's response carries its authoritative byte count; the
	// loop converges even across replays and reconnect rewinds. The guard
	// bounds pathological no-progress exchanges.
	for guard := 4*(int(size)/c.cfg.ChunkBytes+1) + 16; offset < size; guard-- {
		if guard <= 0 {
			res.Stats = c.stats()
			return res, fmt.Errorf("perfdb sync: push of %s stalled at offset %d/%d", m.ID, offset, size)
		}
		n := int64(len(buf))
		if size-offset < n {
			n = size - offset
		}
		if _, err := f.ReadAt(buf[:n], offset); err != nil {
			res.Stats = c.stats()
			return res, err
		}
		resp, err := c.roundTrip(syncReq{
			Op: opPushChunk, Hash: m.Hash, Offset: offset,
			Data: buf[:n], CRC: wire.Checksum(buf[:n]),
		})
		if err != nil {
			res.Stats = c.stats()
			return res, err
		}
		if resp.Offset > offset {
			res.Bytes += resp.Offset - offset
		}
		offset = resp.Offset
	}
	meta := m
	meta.ID = "" // the peer assigns its own
	end, err := c.roundTrip(syncReq{Op: opPushEnd, Hash: m.Hash, Meta: meta})
	if err != nil {
		res.Stats = c.stats()
		return res, err
	}
	res.RemoteID, res.Warning, res.Deduped = end.ID, end.Warning, end.Have
	res.Stats = c.stats()
	return res, nil
}

// PullResult describes one run's pull outcome.
type PullResult struct {
	RemoteID  string
	LocalID   string
	Label     string
	Skipped   bool  // identical content was already in the local store
	ResumedAt int64 // byte offset the transfer resumed from
	Bytes     int64 // payload bytes actually transferred this invocation
	Warning   string
}

// Pull fetches runs from the store served at addr into st: one run (remote
// ID or label) when runID is non-empty, otherwise every remote run whose
// content the local store doesn't already hold. Each transferred archive
// is CRC-checked per chunk in transit, verified whole against its content
// hash, parsed for structural validity, and only then ingested under a
// fresh local ID.
func Pull(st *Store, addr, runID string, cfg SyncConfig) ([]PullResult, *wire.Stats, error) {
	if err := st.EnsureHashes(); err != nil {
		return nil, nil, err
	}
	c, err := dialSync(addr, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	fail := func(results []PullResult, err error) ([]PullResult, *wire.Stats, error) {
		s := c.stats()
		return results, &s, err
	}
	list, err := c.roundTrip(syncReq{Op: opList})
	if err != nil {
		return fail(nil, err)
	}
	var want []RunMeta
	if runID == "" {
		want = list.Runs
	} else {
		for _, m := range list.Runs {
			if m.ID == runID || (m.Label != "" && m.Label == runID) {
				want = append(want, m)
				break
			}
		}
		if len(want) == 0 {
			return fail(nil, fmt.Errorf("perfdb sync: no run %q at %s", runID, addr))
		}
	}
	var results []PullResult
	for _, m := range want {
		r, err := pullOne(st, c, m)
		results = append(results, r)
		if err != nil {
			return fail(results, err)
		}
	}
	return fail(results, nil)
}

// pullOne transfers one remote run into the local store.
func pullOne(st *Store, c *syncClient, m RunMeta) (PullResult, error) {
	res := PullResult{RemoteID: m.ID, Label: m.Label}
	if existing, ok := st.FindByHash(m.Hash); ok {
		res.Skipped, res.LocalID = true, existing.ID
		return res, nil
	}
	if m.Hash == "" {
		return res, fmt.Errorf("perfdb sync: remote run %s has no content hash", m.ID)
	}
	if err := os.MkdirAll(st.syncDir(), 0o755); err != nil {
		return res, err
	}
	staging := filepath.Join(st.syncDir(), m.Hash+".partial")
	var offset int64
	if fi, err := os.Stat(staging); err == nil {
		offset = fi.Size()
	}
	res.ResumedAt = offset
	f, err := os.OpenFile(staging, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return res, err
	}
	for done := false; !done; {
		resp, err := c.roundTrip(syncReq{
			Op: opPullChunk, ID: m.ID, Hash: m.Hash,
			Offset: offset, Size: int64(c.cfg.ChunkBytes),
		})
		if err != nil {
			f.Close()
			return res, err
		}
		if wire.Checksum(resp.Data) != resp.CRC {
			// Payload corrupted in transit: re-request the same chunk.
			continue
		}
		if resp.Offset < offset {
			// Our partial outran the remote file (stale staging from a
			// different epoch); restart clean.
			f.Close()
			os.Remove(staging)
			return res, fmt.Errorf("perfdb sync: remote run %s shrank mid-pull; stale partial discarded, retry", m.ID)
		}
		if len(resp.Data) > 0 {
			if _, err := f.WriteAt(resp.Data, resp.Offset); err != nil {
				f.Close()
				return res, err
			}
			res.Bytes += int64(len(resp.Data))
			offset = resp.Offset + int64(len(resp.Data))
		}
		done = resp.EOF
	}
	if err := f.Close(); err != nil {
		return res, err
	}
	gotHash, err := fileSHA256(staging)
	if err != nil {
		return res, err
	}
	if gotHash != m.Hash {
		os.Remove(staging)
		return res, fmt.Errorf("perfdb sync: pulled run %s fails content verification (want %.12s, got %.12s)", m.ID, m.Hash, gotHash)
	}
	if _, err := LoadArchive(staging); err != nil {
		os.Remove(staging)
		return res, fmt.Errorf("perfdb sync: pulled run %s is not a valid archive: %w", m.ID, err)
	}
	lm, warn, err := st.IngestFile(staging, m)
	if err != nil {
		return res, err
	}
	res.LocalID, res.Label, res.Warning = lm.ID, lm.Label, warn
	return res, nil
}

// A SyncServer exposes one store to db push/pull peers over TCP.
type SyncServer struct {
	st *Store
	ln net.Listener
	wg sync.WaitGroup

	mu          sync.Mutex
	closed      bool
	readTimeout time.Duration
	// uploads serializes writers of one partial upload by content hash;
	// the wire lock table reaps entries as soon as the last holder
	// releases, so redial churn cannot grow it without bound.
	uploads *wire.LockTable
	frames  int64
	dups    int64
}

// Serve listens on addr ("127.0.0.1:0" picks a free port) and serves the
// store until Close. Store mutations triggered by peers go through the
// same advisory-locked paths the CLI uses, so a served store remains safe
// to use locally.
func Serve(st *Store, addr string) (*SyncServer, error) {
	if err := st.EnsureHashes(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("perfdb sync: listen: %w", err)
	}
	s := &SyncServer{
		st: st, ln: ln,
		readTimeout: 30 * time.Second,
		uploads:     wire.NewLockTable(),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		wire.AcceptLoop(s.ln, s.isClosed, nil, &s.wg, s.handle)
	}()
	return s, nil
}

// Addr returns the listening address.
func (s *SyncServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for connection handlers to finish.
func (s *SyncServer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Frames returns how many request frames the server has processed.
func (s *SyncServer) Frames() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

// DuplicateFrames returns how many chunk frames re-asserted bytes the
// server already held — replays after lost acks, absorbed idempotently.
func (s *SyncServer) DuplicateFrames() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dups
}

// UploadLocks returns how many per-content-hash upload locks are currently
// live — held or awaited right now; released entries are reaped.
func (s *SyncServer) UploadLocks() int { return s.uploads.Len() }

func (s *SyncServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// handle serves one connection: a request/response loop with per-frame
// read deadlines so a wedged peer cannot park the goroutine forever.
func (s *SyncServer) handle(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var lastSeq uint64
	for {
		var req syncReq
		if _, err := wire.ReadFrame(conn, dec, s.readTimeout, &req); err != nil {
			return
		}
		s.mu.Lock()
		s.frames++
		s.mu.Unlock()
		if req.Seq != 0 && req.Seq <= lastSeq {
			// A desynchronized stream replaying old frames; the ops are
			// idempotent, but a non-monotonic stream means the codec state
			// is suspect — drop the connection and let the client redial.
			return
		}
		lastSeq = req.Seq
		resp := s.dispatch(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func syncErr(format string, args ...any) *syncResp {
	return &syncResp{Err: fmt.Sprintf(format, args...)}
}

func (s *SyncServer) dispatch(req *syncReq) *syncResp {
	switch req.Op {
	case opHello:
		if req.Proto > SyncProtoVersion {
			return syncErr("server speaks sync protocol %d, client %d", SyncProtoVersion, req.Proto)
		}
		return &syncResp{OK: true, Proto: SyncProtoVersion}
	case opList:
		return &syncResp{OK: true, Runs: s.st.Runs()}
	case opPushBegin:
		return s.pushBegin(req)
	case opPushChunk:
		return s.pushChunk(req)
	case opPushEnd:
		return s.pushEnd(req)
	case opPullChunk:
		return s.pullChunk(req)
	}
	return syncErr("unknown op %d", req.Op)
}

// partialPath is where an in-flight upload of the given content lives.
func (s *SyncServer) partialPath(hash string) string {
	return filepath.Join(s.st.syncDir(), hash+".partial")
}

func (s *SyncServer) pushBegin(req *syncReq) *syncResp {
	if !wire.ValidHash(req.Hash) {
		return syncErr("push-begin: bad content hash %q", req.Hash)
	}
	if m, ok := s.st.FindByHash(req.Hash); ok {
		return &syncResp{OK: true, Have: true, ID: m.ID, Warning: fmt.Sprintf("identical content already stored as %s", m.ID)}
	}
	release := s.uploads.Acquire(req.Hash)
	defer release()
	if err := os.MkdirAll(s.st.syncDir(), 0o755); err != nil {
		return syncErr("push-begin: %v", err)
	}
	var offset int64
	if fi, err := os.Stat(s.partialPath(req.Hash)); err == nil {
		offset = fi.Size()
		if offset > req.Size {
			// A stale partial from different content that happened to
			// collide is impossible (hash-named), but a corrupt oversized
			// one is not worth salvaging.
			os.Remove(s.partialPath(req.Hash))
			offset = 0
		}
	}
	return &syncResp{OK: true, Offset: offset}
}

func (s *SyncServer) pushChunk(req *syncReq) *syncResp {
	if !wire.ValidHash(req.Hash) {
		return syncErr("push-chunk: bad content hash %q", req.Hash)
	}
	if wire.Checksum(req.Data) != req.CRC {
		return syncErr("push-chunk: CRC mismatch at offset %d", req.Offset)
	}
	release := s.uploads.Acquire(req.Hash)
	defer release()
	path := s.partialPath(req.Hash)
	var cur int64
	if fi, err := os.Stat(path); err == nil {
		cur = fi.Size()
	}
	end := req.Offset + int64(len(req.Data))
	if end <= cur {
		// Replay of bytes already held (a lost ack); answer with the
		// authoritative offset instead of double-applying.
		s.mu.Lock()
		s.dups++
		s.mu.Unlock()
		return &syncResp{OK: true, Offset: cur}
	}
	if req.Offset > cur {
		// A gap: the client is ahead of us (our partial was GC'd between
		// its frames, say). Answer with where we actually are; the client
		// rewinds.
		return &syncResp{OK: true, Offset: cur}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return syncErr("push-chunk: %v", err)
	}
	defer f.Close()
	// Write only the unseen suffix, at the position it belongs.
	if _, err := f.WriteAt(req.Data[cur-req.Offset:], cur); err != nil {
		return syncErr("push-chunk: %v", err)
	}
	return &syncResp{OK: true, Offset: end}
}

func (s *SyncServer) pushEnd(req *syncReq) *syncResp {
	if !wire.ValidHash(req.Hash) {
		return syncErr("push-end: bad content hash %q", req.Hash)
	}
	release := s.uploads.Acquire(req.Hash)
	defer release()
	// A replayed push-end after the ingest already happened dedupes via
	// the content address.
	if m, ok := s.st.FindByHash(req.Hash); ok {
		os.Remove(s.partialPath(req.Hash))
		return &syncResp{OK: true, Have: true, ID: m.ID}
	}
	path := s.partialPath(req.Hash)
	gotHash, err := fileSHA256(path)
	if err != nil {
		return syncErr("push-end: no complete upload for %.12s: %v", req.Hash, err)
	}
	if gotHash != req.Hash {
		return syncErr("push-end: upload fails content verification (want %.12s, got %.12s)", req.Hash, gotHash)
	}
	if _, err := LoadArchive(path); err != nil {
		os.Remove(path)
		return syncErr("push-end: upload is not a valid archive: %v", err)
	}
	meta := req.Meta
	meta.Hash = req.Hash
	m, warn, err := s.st.IngestFile(path, meta)
	if err != nil {
		return syncErr("push-end: ingest: %v", err)
	}
	return &syncResp{OK: true, ID: m.ID, Warning: warn}
}

func (s *SyncServer) pullChunk(req *syncReq) *syncResp {
	m, err := s.st.Get(req.ID)
	if err != nil {
		return syncErr("pull-chunk: %v", err)
	}
	if req.Hash != "" && m.Hash != req.Hash {
		return syncErr("pull-chunk: run %s content changed (hash mismatch)", m.ID)
	}
	f, err := os.Open(s.st.RunPath(m.ID))
	if err != nil {
		return syncErr("pull-chunk: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return syncErr("pull-chunk: %v", err)
	}
	size := fi.Size()
	if req.Offset > size || req.Offset < 0 {
		return syncErr("pull-chunk: offset %d beyond archive size %d", req.Offset, size)
	}
	chunk := req.Size
	if chunk <= 0 || chunk > int64(maxChunkPayload) {
		chunk = DefaultSyncChunkBytes
	}
	n := size - req.Offset
	if n > chunk {
		n = chunk
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, req.Offset, n), data); err != nil {
		return syncErr("pull-chunk: read: %v", err)
	}
	return &syncResp{
		OK: true, Data: data, CRC: wire.Checksum(data),
		Offset: req.Offset, Size: size, EOF: req.Offset+n == size,
	}
}
