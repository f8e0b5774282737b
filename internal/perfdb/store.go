package perfdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pperf/internal/session"
)

// A Store is a directory of compacted run archives plus a metadata index:
//
//	<dir>/index.json      the run index (this file is the store)
//	<dir>/runs/<id>.ppdb  one chunked archive per stored run
//	<dir>/sync/           partial transfers staged by push/pull peers
//	<dir>/.lock           advisory flock serializing mutations
//
// IDs are assigned sequentially (r0001, r0002, …) so a scripted sequence
// of adds is deterministic. The index is rewritten atomically (temp file
// + rename) on every mutation, and every mutation runs under the store's
// advisory file lock with a freshly reloaded index — concurrent processes
// (a live `-db` recording, the CLI, a `db serve` server) interleave
// safely. Files in runs/ not referenced by the index or by a live
// recording reservation are garbage a GC sweep removes.
type Store struct {
	dir string

	// GCTmpAge is how long a reserved recording's temp file may go
	// unmodified before GC declares the recording crashed and sweeps it
	// (0 means defaultGCTmpAge). Stale partial sync downloads age out on
	// the same clock.
	GCTmpAge time.Duration

	mu    sync.Mutex // serializes in-process access to index
	index storeIndex
}

// indexVersion versions index.json; Open refuses a newer index rather
// than silently dropping fields.
const indexVersion = 1

// defaultGCTmpAge is the default crash-detection age for reserved temp
// files and stale partial downloads.
const defaultGCTmpAge = 15 * time.Minute

type storeIndex struct {
	Version int       `json:"version"`
	NextID  int       `json:"next_id"`
	Runs    []RunMeta `json:"runs"`
	// Reserved lists IDs handed to still-open streaming recorders. A
	// reservation pins the recorder's rNNNN.ppdb.tmp against GC and keeps
	// concurrent adds off the ID; Commit (or Discard) releases it.
	Reserved []string `json:"reserved,omitempty"`
}

// RunMeta is one stored run's index entry. The descriptive fields come
// from the archive header's Meta map (stamped by the recording harness);
// Verdict is the Consultant's exported summary, supplied by the caller at
// add time (the store itself never replays).
type RunMeta struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`

	Program string `json:"program,omitempty"`
	Impl    string `json:"impl,omitempty"`
	Seed    string `json:"seed,omitempty"`
	Procs   string `json:"procs,omitempty"`
	Nodes   string `json:"nodes,omitempty"`
	Faults  string `json:"faults,omitempty"`
	Runtime string `json:"runtime,omitempty"`

	Verdict string `json:"verdict,omitempty"`

	Events    int   `json:"events"`
	Bytes     int64 `json:"bytes"`
	Truncated bool  `json:"truncated,omitempty"`

	// Hash is the SHA-256 of the archive file — the run's content address.
	// The chunked encoding is byte-deterministic, so identical recordings
	// hash identically; sync dedupe keys on it.
	Hash string `json:"hash,omitempty"`
}

// Describe renders the one-line summary `db list` prints.
func (m RunMeta) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-18s %-9s seed=%-10s", m.ID, orDash(m.Program), orDash(m.Impl), orDash(m.Seed))
	fmt.Fprintf(&b, " runtime=%-9s events=%-7d", orDash(m.Runtime), m.Events)
	if m.Faults != "" {
		fmt.Fprintf(&b, " faults=%q", m.Faults)
	}
	if m.Label != "" {
		fmt.Fprintf(&b, " label=%q", m.Label)
	}
	if m.Truncated {
		b.WriteString(" [truncated]")
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Open opens (creating if needed) the store at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir}
	if err := st.loadIndex(); err != nil {
		return nil, err
	}
	return st, nil
}

// loadIndex (re)reads index.json from disk, resetting to the empty index
// when the file does not exist yet.
func (st *Store) loadIndex() error {
	st.index = storeIndex{Version: indexVersion, NextID: 1}
	data, err := os.ReadFile(st.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &st.index); err != nil {
		return fmt.Errorf("perfdb: corrupt store index %s: %v", st.indexPath(), err)
	}
	if st.index.Version > indexVersion {
		return fmt.Errorf("perfdb: store index version %d; this build reads version %d", st.index.Version, indexVersion)
	}
	if st.index.NextID < 1 {
		st.index.NextID = 1
	}
	return nil
}

// withLock runs one index mutation under the store's advisory file lock,
// reloading the index first (another process may have mutated it since we
// last looked). fn persists its own changes via saveIndex before the lock
// is released.
func (st *Store) withLock(fn func() error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	unlock, err := acquireLock(filepath.Join(st.dir, ".lock"))
	if err != nil {
		return fmt.Errorf("perfdb: lock store %s: %w", st.dir, err)
	}
	defer unlock()
	if err := st.loadIndex(); err != nil {
		return err
	}
	return fn()
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) indexPath() string { return filepath.Join(st.dir, "index.json") }

// RunPath returns the archive path of a stored run.
func (st *Store) RunPath(id string) string {
	return filepath.Join(st.dir, "runs", id+".ppdb")
}

// syncDir returns the staging directory for partial transfers.
func (st *Store) syncDir() string { return filepath.Join(st.dir, "sync") }

// Runs returns the index entries in store order.
func (st *Store) Runs() []RunMeta {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]RunMeta(nil), st.index.Runs...)
}

// RunsFor returns the index entries of every stored run of the named
// program, in store order — the run sequence a trend query fits.
func (st *Store) RunsFor(program string) []RunMeta {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []RunMeta
	for _, m := range st.index.Runs {
		if m.Program == program {
			out = append(out, m)
		}
	}
	return out
}

// Get returns the index entry for id (an ID or a label).
func (st *Store) Get(id string) (RunMeta, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.getLocked(id)
}

func (st *Store) getLocked(id string) (RunMeta, error) {
	for _, m := range st.index.Runs {
		if m.ID == id || (m.Label != "" && m.Label == id) {
			return m, nil
		}
	}
	return RunMeta{}, fmt.Errorf("perfdb: no run %q in store %s (try `db list`)", id, st.dir)
}

// FindByHash returns the index entry whose archive content hashes to h.
func (st *Store) FindByHash(h string) (RunMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.findByHashLocked(h)
}

func (st *Store) findByHashLocked(h string) (RunMeta, bool) {
	if h == "" {
		return RunMeta{}, false
	}
	for _, m := range st.index.Runs {
		if m.Hash == h {
			return m, true
		}
	}
	return RunMeta{}, false
}

// saveIndex writes index.json atomically.
func (st *Store) saveIndex() error {
	data, err := json.MarshalIndent(&st.index, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, st.indexPath())
}

// metaFromHeader fills the descriptive fields from an archive header.
func metaFromHeader(m *RunMeta, h session.Header) {
	m.Program = h.Meta["program"]
	m.Impl = h.Meta["impl"]
	m.Seed = h.Meta["seed"]
	m.Procs = h.Meta["procs"]
	m.Nodes = h.Meta["nodes"]
	m.Faults = h.Meta["faults"]
	m.Runtime = h.Meta["runtime"]
}

// peekID formats the next sequential run ID without consuming it.
func (st *Store) peekID() string {
	return fmt.Sprintf("r%04d", st.index.NextID)
}

// fileSHA256 returns the hex SHA-256 of the file at path.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// AddMeta carries the caller-supplied parts of an index entry.
type AddMeta struct {
	// Label is an optional human alias (Get resolves it like an ID).
	Label string
	// Verdict is the Consultant's exported summary for the run, or "".
	Verdict string
}

// createRunFile creates an archive temp file; a test seam for exercising
// the add-failure path.
var createRunFile = os.Create

// AddArchive stores a loaded session archive, re-encoding it in chunked
// compacted form, and appends its index entry — this is how `-record`
// files, read with LoadArchive, are ingested. The run ID is consumed only
// once the archive is safely on disk: a failed add followed by a
// successful one leaves no hole in the ID sequence.
func (st *Store) AddArchive(a *session.Archive, am AddMeta) (RunMeta, error) {
	var m RunMeta
	err := st.withLock(func() error {
		if err := st.checkLabel(am.Label); err != nil {
			return err
		}
		id := st.peekID()
		path := st.RunPath(id)
		tmp := path + ".tmp"
		f, err := createRunFile(tmp)
		if err != nil {
			return err
		}
		if err := WriteArchive(f, a); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return err
		}
		st.index.NextID++
		m, err = st.commitMetaLocked(id, path, a.Header, len(a.Events), a.Truncated, am.Label, am.Verdict)
		return err
	})
	return m, err
}

// NewRecorder opens a streaming recorder that records straight into the
// store: the live run's event stream lands in chunked compacted form
// without an intermediate buffer-everything archive. The reserved ID is
// persisted in the index, so concurrent adds cannot collide with the
// recording in flight and GC knows its temp file is live. Commit the
// recorder when the run finishes (or Discard it on failure); a
// reservation whose temp file goes quiet past GCTmpAge is GC fodder.
func (st *Store) NewRecorder() (*StreamRecorder, error) {
	var rec *StreamRecorder
	err := st.withLock(func() error {
		id := st.peekID()
		st.index.NextID++
		st.index.Reserved = append(st.index.Reserved, id)
		if err := st.saveIndex(); err != nil {
			return err
		}
		var err error
		rec, err = NewStreamRecorder(st.RunPath(id))
		return err
	})
	return rec, err
}

// recorderID recovers the reserved run ID from a recorder's destination
// path.
func recorderID(rec *StreamRecorder) string {
	return strings.TrimSuffix(filepath.Base(rec.Path()), ".ppdb")
}

// Commit finalizes a recorder obtained from NewRecorder, releases its
// reservation, and appends the run's index entry. A label that collides
// with an existing run does not discard the recording: the run is
// committed unlabeled and the returned warning explains why — a CLI typo
// must never destroy a fully recorded run.
func (st *Store) Commit(rec *StreamRecorder, am AddMeta) (RunMeta, string, error) {
	id := recorderID(rec)
	if err := rec.Close(); err != nil {
		// The recorder already removed its temp file; release the
		// reservation so the dead ID does not pin GC state forever.
		st.withLock(func() error {
			if st.dropReservationLocked(id) {
				return st.saveIndex()
			}
			return nil
		})
		return RunMeta{}, "", err
	}
	var (
		m       RunMeta
		warning string
	)
	err := st.withLock(func() error {
		label := am.Label
		if err := st.checkLabel(label); err != nil {
			warning = fmt.Sprintf("%v; run committed unlabeled", err)
			label = ""
		}
		var err error
		m, err = st.commitMetaLocked(id, rec.Path(), rec.Header(), rec.EventCount(), false, label, am.Verdict)
		return err
	})
	return m, warning, err
}

// Discard aborts an uncommitted recorder and releases its reservation, so
// an abandoned run leaves nothing behind for GC to age out.
func (st *Store) Discard(rec *StreamRecorder) {
	rec.Abort()
	id := recorderID(rec)
	st.withLock(func() error {
		if st.dropReservationLocked(id) {
			return st.saveIndex()
		}
		return nil
	})
}

// dropReservationLocked removes id from the reservation list, reporting
// whether it was present.
func (st *Store) dropReservationLocked(id string) bool {
	for i, r := range st.index.Reserved {
		if r == id {
			st.index.Reserved = append(st.index.Reserved[:i], st.index.Reserved[i+1:]...)
			return true
		}
	}
	return false
}

// commitMetaLocked appends one run's index entry (stamping size and
// content hash from the on-disk archive) and persists the index. The
// caller holds the store lock.
func (st *Store) commitMetaLocked(id, path string, h session.Header, events int, truncated bool, label, verdict string) (RunMeta, error) {
	m := RunMeta{ID: id, Label: label, Verdict: verdict, Events: events, Truncated: truncated}
	metaFromHeader(&m, h)
	if fi, err := os.Stat(path); err == nil {
		m.Bytes = fi.Size()
	}
	if hash, err := fileSHA256(path); err == nil {
		m.Hash = hash
	}
	st.dropReservationLocked(id)
	st.index.Runs = append(st.index.Runs, m)
	if err := st.saveIndex(); err != nil {
		return RunMeta{}, err
	}
	return m, nil
}

// IngestFile moves a verified chunked archive already on the store's
// filesystem (a completed sync transfer) into the store under a fresh
// local ID, carrying the peer's descriptive metadata instead of replaying.
// Content identical to an existing run is a no-op returning that run. The
// peer's label is kept unless it collides locally, in which case the run
// lands unlabeled and the returned warning says so.
func (st *Store) IngestFile(src string, meta RunMeta) (RunMeta, string, error) {
	var (
		m       RunMeta
		warning string
	)
	err := st.withLock(func() error {
		if existing, ok := st.findByHashLocked(meta.Hash); ok {
			m = existing
			warning = fmt.Sprintf("identical content already stored as %s", existing.ID)
			os.Remove(src)
			return nil
		}
		label := meta.Label
		if err := st.checkLabel(label); err != nil {
			warning = fmt.Sprintf("%v; run ingested unlabeled", err)
			label = ""
		}
		id := st.peekID()
		path := st.RunPath(id)
		if err := os.Rename(src, path); err != nil {
			return err
		}
		st.index.NextID++
		m = meta
		m.ID = id
		m.Label = label
		if fi, err := os.Stat(path); err == nil {
			m.Bytes = fi.Size()
		}
		st.index.Runs = append(st.index.Runs, m)
		return st.saveIndex()
	})
	return m, warning, err
}

// EnsureHashes backfills content hashes for runs stored by builds that
// predate content addressing; sync dedupe keys on them.
func (st *Store) EnsureHashes() error {
	return st.withLock(func() error {
		changed := false
		for i := range st.index.Runs {
			if st.index.Runs[i].Hash != "" {
				continue
			}
			h, err := fileSHA256(st.RunPath(st.index.Runs[i].ID))
			if err != nil {
				return fmt.Errorf("perfdb: hash %s: %w", st.index.Runs[i].ID, err)
			}
			st.index.Runs[i].Hash = h
			changed = true
		}
		if changed {
			return st.saveIndex()
		}
		return nil
	})
}

// checkLabel refuses a label that collides with an existing ID or label,
// keeping Get unambiguous.
func (st *Store) checkLabel(label string) error {
	if label == "" {
		return nil
	}
	for _, m := range st.index.Runs {
		if m.ID == label || m.Label == label {
			return fmt.Errorf("perfdb: label %q collides with stored run %s", label, m.ID)
		}
	}
	return nil
}

// Load loads a stored run's archive.
func (st *Store) Load(id string) (*session.Archive, error) {
	m, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	return LoadArchive(st.RunPath(m.ID))
}

// OpenRun loads a stored run and materializes its full DataSource view.
func (st *Store) OpenRun(id string) (*RunView, error) {
	m, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	a, err := LoadArchive(st.RunPath(m.ID))
	if err != nil {
		return nil, err
	}
	return NewRunView(a, m), nil
}

// Remove drops a run from the index and deletes its archive.
func (st *Store) Remove(id string) error {
	var path string
	err := st.withLock(func() error {
		m, err := st.getLocked(id)
		if err != nil {
			return err
		}
		path = st.RunPath(m.ID)
		kept := st.index.Runs[:0]
		for _, r := range st.index.Runs {
			if r.ID != m.ID {
				kept = append(kept, r)
			}
		}
		st.index.Runs = kept
		return st.saveIndex()
	})
	if err != nil {
		return err
	}
	return os.Remove(path)
}

func (st *Store) gcTmpAge() time.Duration {
	if st.GCTmpAge > 0 {
		return st.GCTmpAge
	}
	return defaultGCTmpAge
}

// GC removes files under runs/ that neither an index entry nor a live
// recording reservation references — crashed recordings' temp files,
// archives of removed runs — plus stale partial transfers under sync/,
// and returns the removed names, sorted. A reservation counts as live
// while its rNNNN.ppdb.tmp keeps being modified; one whose temp file has
// gone quiet past GCTmpAge (or vanished) is a crashed recording, so the
// reservation is released and the file swept. An in-flight `-db`
// recording is therefore never collected: its reservation pins both the
// temp file and the final name.
func (st *Store) GC() ([]string, error) {
	var removed []string
	err := st.withLock(func() error {
		age := st.gcTmpAge()
		referenced := map[string]bool{}
		for _, m := range st.index.Runs {
			referenced[m.ID+".ppdb"] = true
		}
		var live []string
		for _, id := range st.index.Reserved {
			fi, err := os.Stat(st.RunPath(id) + ".tmp")
			if err == nil && time.Since(fi.ModTime()) < age {
				referenced[id+".ppdb"] = true
				referenced[id+".ppdb.tmp"] = true
				live = append(live, id)
			}
			// Otherwise the recording crashed (stale temp) or never
			// started (no temp): release the reservation and let the
			// sweep below take the file.
		}
		if len(live) != len(st.index.Reserved) {
			st.index.Reserved = live
			if err := st.saveIndex(); err != nil {
				return err
			}
		}
		entries, err := os.ReadDir(filepath.Join(st.dir, "runs"))
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || referenced[e.Name()] {
				continue
			}
			if err := os.Remove(filepath.Join(st.dir, "runs", e.Name())); err != nil {
				return err
			}
			removed = append(removed, e.Name())
		}
		// Partial sync transfers resume across invocations, so only
		// stale ones are garbage.
		if entries, err := os.ReadDir(st.syncDir()); err == nil {
			for _, e := range entries {
				fi, err := e.Info()
				if err != nil || e.IsDir() || time.Since(fi.ModTime()) < age {
					continue
				}
				if err := os.Remove(filepath.Join(st.syncDir(), e.Name())); err != nil {
					return err
				}
				removed = append(removed, "sync/"+e.Name())
			}
		}
		sort.Strings(removed)
		return nil
	})
	return removed, err
}
