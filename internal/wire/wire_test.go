package wire

import (
	"strings"
	"sync"
	"testing"
	"time"

	"pperf/internal/sim"
)

// TestBackoffPinnedSchedules pins the exact delay sequences the stacks
// produce, per channel configuration. These literals are the observable
// retry behaviour of the tool as shipped: the TCP control channel draws
// from the unsalted seed, bulk and sync from their salted streams, and the
// supervisor from its own. Any change to the jitter formula, the doubling
// rule, or the cap shows up here as a byte-for-byte schedule change —
// exactly what the byte-identical-output constraint forbids.
func TestBackoffPinnedSchedules(t *testing.T) {
	cases := []struct {
		name string
		base time.Duration
		max  time.Duration
		seed uint64
		ns   []int // doubling counts, in draw order
		want []time.Duration
	}{
		{
			// Control channel, production defaults (DefaultConfig, Seed 1):
			// retry attempts 2..7 of consecutive failing frames.
			name: "ctl-default-seed1",
			base: 5 * time.Millisecond, max: 250 * time.Millisecond, seed: 1,
			ns: []int{0, 1, 2, 3, 4, 5},
			want: []time.Duration{
				2805961, 6617746, 11196105, 24960644, 56046282, 132022146,
			},
		},
		{
			// Bulk channel, production defaults: same seed, salted stream.
			name: "bulk-default-seed1",
			base: 5 * time.Millisecond, max: 250 * time.Millisecond, seed: 1 ^ SaltBulk,
			ns:   []int{0, 1, 2, 3},
			want: []time.Duration{2822155, 6352371, 18763343, 38624296},
		},
		{
			// Sync channel, production defaults under plan seed 1.
			name: "sync-default-seed1",
			base: 5 * time.Millisecond, max: 250 * time.Millisecond, seed: 1 ^ SaltSync,
			ns:   []int{0, 1, 2, 3},
			want: []time.Duration{4637436, 7831395, 16049282, 22444521},
		},
		{
			// The transport tests' tight config (seed 42).
			name: "test-config-seed42",
			base: 100 * time.Microsecond, max: time.Millisecond, seed: 42,
			ns:   []int{0, 1, 2, 3},
			want: []time.Duration{67001, 130996, 316270, 763565},
		},
		{
			// Supervisor respawn policy (0-based attempts: n == attempt).
			name: "supervisor-seed7",
			base: 50 * time.Millisecond, max: time.Second, seed: 7 ^ 0x73757076,
			ns:   []int{0, 1, 2, 3},
			want: []time.Duration{35320246, 55964234, 103340187, 290629406},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(tc.seed)
			for i, n := range tc.ns {
				got := Backoff(tc.base, tc.max, n, rng)
				if got != tc.want[i] {
					t.Errorf("delay[%d] = %v, want %v", i, got, tc.want[i])
				}
			}
		})
	}
}

// TestBackoffJitterBounds checks the schedule's envelope: delay n lies in
// [d/2, d) for d = base doubled n times, capped at max.
func TestBackoffJitterBounds(t *testing.T) {
	rng := sim.NewRNG(99)
	base, max := 4*time.Millisecond, 64*time.Millisecond
	for n := 0; n < 12; n++ {
		d := base
		for i := 0; i < n; i++ {
			d *= 2
			if d >= max {
				d = max
				break
			}
		}
		got := Backoff(base, max, n, rng)
		if got < d/2 || got > d {
			t.Errorf("n=%d: delay %v outside [%v, %v]", n, got, d/2, d)
		}
	}
}

func TestDedupeSemantics(t *testing.T) {
	d := NewDedupe(0)
	// Fresh frames apply in order.
	for seq := uint64(1); seq <= 3; seq++ {
		if d.Seen("d0", ChanBulk, 1, seq) {
			t.Fatalf("fresh frame seq %d treated as seen", seq)
		}
	}
	// Replay after a lost ack is a duplicate.
	if !d.Seen("d0", ChanBulk, 1, 3) {
		t.Error("replayed frame not deduped")
	}
	// Channels number independently.
	if d.Seen("d0", ChanCtl, 1, 1) {
		t.Error("other channel's seq space not independent")
	}
	// A newer incarnation resets the seq space...
	if d.Seen("d0", ChanBulk, 2, 1) {
		t.Error("new incarnation's seq 1 rejected")
	}
	// ...and the dead incarnation's stragglers are fenced out.
	if !d.Seen("d0", ChanBulk, 1, 4) {
		t.Error("stale-incarnation frame applied")
	}
	// Legacy frames (no identity / seq 0) bypass dedupe.
	if d.Seen("", ChanCtl, 0, 5) || d.Seen("d0", ChanCtl, 0, 0) {
		t.Error("legacy frame blocked by dedupe")
	}
	if d.Duplicates() != 1 || d.StaleFrames() != 1 {
		t.Errorf("dups=%d stale=%d, want 1/1", d.Duplicates(), d.StaleFrames())
	}
	bulk := d.ChannelStats(ChanBulk)
	if bulk.Duplicates != 1 || bulk.StaleFrames != 1 {
		t.Errorf("bulk channel stats = %+v, want 1 dup, 1 stale", bulk)
	}
}

// TestDedupeWindowsBounded is the regression test for the unbounded
// listener dedupe map: a receiver fed ever-fresh peer identities (redial
// churn under a chaos plan) must reach a steady-state window count, with
// the most recently active peers still protected.
func TestDedupeWindowsBounded(t *testing.T) {
	const limit = 8
	d := NewDedupe(limit)
	for i := 0; i < 100; i++ {
		peer := "d" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		d.Seen(peer, ChanCtl, 1, 1)
		if got := d.Windows(); got > limit {
			t.Fatalf("window table grew to %d, bound is %d", got, limit)
		}
	}
	if got := d.Windows(); got != limit {
		t.Errorf("steady-state windows = %d, want %d", got, limit)
	}
	// The most recent peer's window survived: its replay still dedupes.
	if !d.Seen("dvd", ChanCtl, 1, 1) {
		t.Error("most recently used window was evicted")
	}
}

// TestLockTableReapsEntries is the regression test for the unbounded
// per-hash upload-lock map: entries must vanish as soon as the last holder
// releases, even under concurrent same-key and fresh-key churn.
func TestLockTableReapsEntries(t *testing.T) {
	lt := NewLockTable()
	var wg sync.WaitGroup
	var counters [5]int // counters[k] is touched only under key k's lock
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 5
				release := lt.Acquire(string(rune('a' + k)))
				counters[k]++
				release()
			}
		}()
	}
	wg.Wait()
	if got := lt.Len(); got != 0 {
		t.Errorf("lock table holds %d entries after all releases, want 0", got)
	}
	total := 0
	for _, n := range counters {
		total += n
	}
	if total != 8*200 {
		t.Errorf("serialized increments = %d, want %d (lost update: lock not exclusive)", total, 8*200)
	}
}

func TestLockTableTracksWaiters(t *testing.T) {
	lt := NewLockTable()
	release := lt.Acquire("k")
	if lt.Len() != 1 {
		t.Fatalf("held key not tracked")
	}
	done := make(chan func(), 1)
	go func() { done <- lt.Acquire("k") }()
	// The waiter blocks until the holder releases; afterwards the entry is
	// reaped only when the waiter releases too.
	release()
	r2 := <-done
	if lt.Len() != 1 {
		t.Errorf("entry reaped while still held by the second acquirer")
	}
	r2()
	if lt.Len() != 0 {
		t.Errorf("entry survives with no holders")
	}
}

func TestInjectionDropsThenDegrade(t *testing.T) {
	in := NewInjection(ChanSync)
	in.SeedBW(1 ^ SaltSync ^ SaltBW)
	in.AddDrops(2)
	for i := 0; i < 2; i++ {
		if err := in.Check(); err == nil {
			t.Fatalf("armed drop %d did not fire", i)
		} else if !strings.Contains(err.Error(), "injected sync fault") {
			t.Fatalf("drop error = %v", err)
		}
	}
	if err := in.Check(); err != nil {
		t.Fatalf("drop budget overran: %v", err)
	}
	if in.Dropped() != 2 || in.Pending() != 0 {
		t.Errorf("dropped=%d pending=%d, want 2/0", in.Dropped(), in.Pending())
	}
	// Degrade-link failures draw from the seeded stream: equal seeds give
	// the identical pass/fail pattern.
	pattern := func(seed uint64) []bool {
		p := NewInjection(ChanSync)
		p.SeedBW(seed)
		p.Degrade(0, 0.5)
		var out []bool
		for i := 0; i < 32; i++ {
			out = append(out, p.Check() != nil)
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different failure pattern at draw %d", i)
		}
	}
}

func TestStatsSummary(t *testing.T) {
	s := Stats{Frames: 12, Retries: 3, Duplicates: 1, StaleFrames: 0}
	if got := s.Summary(); got != "frames=12 retries=3 dups=1 stale=0" {
		t.Errorf("summary = %q", got)
	}
	s.Reconnects, s.Failures, s.InjectedDrops, s.ReadTimeouts = 3, 1, 2, 1
	want := "frames=12 retries=3 dups=1 stale=0 reconnects=3 failures=1 injected=2 read-timeouts=1"
	if got := s.Summary(); got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
