package trace

import (
	"sort"
	"strings"
	"sync"
)

// Timeline is the front end's merged view of every shard the daemons
// shipped: one globally ordered span stream keyed by the deterministic
// virtual clock (ties broken by the Tracer's global Seq, so the merge is
// byte-identical across runs of the same seed).
//
// Unlike the Tracer (engine context only), shards can arrive from TCP
// listener goroutines, so Timeline locks.
type Timeline struct {
	mu         sync.Mutex
	byProc     map[string][]Span
	nodes      map[string]string
	dropped    map[string]int64
	outboxLost map[string]int64
	undeliv    map[string]int64
	shards     int
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{
		byProc:     make(map[string][]Span),
		nodes:      make(map[string]string),
		dropped:    make(map[string]int64),
		outboxLost: make(map[string]int64),
		undeliv:    make(map[string]int64),
	}
}

// Ingest merges one shard.
func (tl *Timeline) Ingest(sh Shard) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.shards++
	tl.byProc[sh.Proc] = append(tl.byProc[sh.Proc], sh.Spans...)
	tl.nodes[sh.Proc] = sh.Node
	if sh.Dropped > tl.dropped[sh.Proc] {
		tl.dropped[sh.Proc] = sh.Dropped
	}
	if sh.OutboxLost > tl.outboxLost[sh.Proc] {
		tl.outboxLost[sh.Proc] = sh.OutboxLost
	}
}

// Shards returns the number of shards ingested.
func (tl *Timeline) Shards() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.shards
}

// Dropped returns the total spans lost to ring eviction across all tracks.
func (tl *Timeline) Dropped() int64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var n int64
	for _, d := range tl.dropped {
		n += d
	}
	return n
}

// OutboxLost returns the total spans that were drained from recorders but
// evicted from a daemon's bounded bulk queue before delivery.
func (tl *Timeline) OutboxLost() int64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var n int64
	for _, d := range tl.outboxLost {
		n += d
	}
	return n
}

// NoteUndelivered records that n of proc's spans were still stranded in a
// daemon's queues when the run ended (the transport never recovered). The
// count is a per-track total, so repeated notes are idempotent (the maximum
// is kept).
func (tl *Timeline) NoteUndelivered(proc string, n int64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if n > tl.undeliv[proc] {
		tl.undeliv[proc] = n
	}
}

// Undelivered returns the total spans stranded undelivered at end of run.
func (tl *Timeline) Undelivered() int64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var n int64
	for _, d := range tl.undeliv {
		n += d
	}
	return n
}

// Lost returns the total spans missing from the merged timeline for any
// reason: ring eviction, bulk-queue eviction, or stranded
// undelivered at exit.
func (tl *Timeline) Lost() int64 {
	return tl.Dropped() + tl.OutboxLost() + tl.Undelivered()
}

// Procs returns all track names: rank tracks first, then tool (daemon)
// tracks, each group ordered by first appearance in the global stream.
func (tl *Timeline) Procs() []string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.procsLocked()
}

func (tl *Timeline) procsLocked() []string {
	type first struct {
		proc string
		seq  uint64
	}
	var ranks, tools []first
	for p, spans := range tl.byProc {
		min := ^uint64(0)
		for _, s := range spans {
			if s.Seq < min {
				min = s.Seq
			}
		}
		f := first{p, min}
		if isToolTrack(p) {
			tools = append(tools, f)
		} else {
			ranks = append(ranks, f)
		}
	}
	order := func(fs []first) {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].seq != fs[j].seq {
				return fs[i].seq < fs[j].seq
			}
			return fs[i].proc < fs[j].proc
		})
	}
	order(ranks)
	order(tools)
	out := make([]string, 0, len(ranks)+len(tools))
	for _, f := range ranks {
		out = append(out, f.proc)
	}
	for _, f := range tools {
		out = append(out, f.proc)
	}
	return out
}

// isToolTrack reports whether a track belongs to the tool (daemon) rather
// than an application rank.
func isToolTrack(proc string) bool { return strings.HasPrefix(proc, "paradynd@") }

// Node returns the cluster node a track lives on.
func (tl *Timeline) Node(proc string) string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.nodes[proc]
}

// Spans returns every merged span globally ordered by (Start, Seq).
func (tl *Timeline) Spans() []Span {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var out []Span
	for _, spans := range tl.byProc {
		out = append(out, spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ProcSpans returns one track's spans ordered by (Start, Seq).
func (tl *Timeline) ProcSpans(proc string) []Span {
	tl.mu.Lock()
	spans := tl.byProc[proc]
	out := make([]Span, len(spans))
	copy(out, spans)
	tl.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
