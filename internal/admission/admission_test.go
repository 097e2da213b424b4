package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock steps time by hand so latency windows, shed hysteresis and
// EWMA service times are deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestCapacityShedIs429Shape fills a class and checks the refusal: a full
// class with no queue sheds immediately with Overload=false (the 429
// shape) and a computed Retry-After of at least a second.
func TestCapacityShedIs429Shape(t *testing.T) {
	c := New(Config{
		Limit: [NumClasses]int{Ingest: 2},
		Queue: [NumClasses]int{Ingest: -1},
	})
	ctx := context.Background()
	t1, err := c.Acquire(ctx, Ingest)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Acquire(ctx, Ingest)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Acquire(ctx, Ingest)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("capacity shed took %v; must fail fast", elapsed)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("want ShedError, got %v", err)
	}
	if shed.Overload {
		t.Fatalf("capacity shed must not be the overload (503) shape: %+v", shed)
	}
	if shed.Class != Ingest {
		t.Fatalf("shed class = %v, want Ingest", shed.Class)
	}
	if shed.RetryAfter < time.Second || shed.RetryAfter > time.Minute {
		t.Fatalf("RetryAfter %v outside [1s, 60s]", shed.RetryAfter)
	}
	t1.Release()
	t3, err := c.Acquire(ctx, Ingest)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	t3.Release()
	t2.Release()
}

// TestQueueGrantsFIFO parks two waiters behind a held slot and checks the
// releaser hands the slot to the oldest first.
func TestQueueGrantsFIFO(t *testing.T) {
	c := New(Config{
		Limit: [NumClasses]int{Search: 1},
		Queue: [NumClasses]int{Search: 2},
	})
	ctx := context.Background()
	holder, err := c.Acquire(ctx, Search)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	ready := make(chan struct{}, 2)
	for i := 1; i <= 2; i++ {
		// Stagger enqueue so the queue order is deterministic.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready <- struct{}{}
			tk, err := c.Acquire(ctx, Search)
			if err != nil {
				t.Errorf("queued acquire %d: %v", i, err)
				return
			}
			order <- i
			tk.Release()
		}(i)
		<-ready
		waitForQueued(t, c, Search, i)
	}
	holder.Release()
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("grant order %d,%d; want 1,2", first, second)
	}
}

// waitForQueued polls the snapshot until the class shows n waiters.
func waitForQueued(t *testing.T, c *Controller, class Class, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().Classes[class].Queued >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d waiters", n)
}

// TestQueueWaitExpiryShedsOverload parks a waiter past MaxWait and checks
// it is shed with the overload (503) shape.
func TestQueueWaitExpiryShedsOverload(t *testing.T) {
	c := New(Config{
		Limit:   [NumClasses]int{Search: 1},
		Queue:   [NumClasses]int{Search: 1},
		MaxWait: 30 * time.Millisecond,
	})
	ctx := context.Background()
	holder, err := c.Acquire(ctx, Search)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release()
	_, err = c.Acquire(ctx, Search)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("want ShedError after MaxWait, got %v", err)
	}
	if !shed.Overload {
		t.Fatalf("queue-wait expiry must be the overload shape: %+v", shed)
	}
	if snap := c.Snapshot(); snap.Classes[Search].Queued != 0 {
		t.Fatalf("expired waiter left in queue: %+v", snap.Classes[Search])
	}
}

// TestContextCancelWhileQueued cancels a queued request and checks the
// context error comes back and the queue is cleaned up.
func TestContextCancelWhileQueued(t *testing.T) {
	c := New(Config{
		Limit: [NumClasses]int{Search: 1},
		Queue: [NumClasses]int{Search: 1},
	})
	holder, err := c.Acquire(context.Background(), Search)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Search)
		done <- err
	}()
	waitForQueued(t, c, Search, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire after cancel: %v, want context.Canceled", err)
	}
	if snap := c.Snapshot(); snap.Classes[Search].Queued != 0 {
		t.Fatalf("cancelled waiter left in queue: %+v", snap.Classes[Search])
	}
	// The held slot must still grant cleanly after the ghost is gone.
	holder.Release()
	tk, err := c.Acquire(context.Background(), Search)
	if err != nil {
		t.Fatal(err)
	}
	tk.Release()
}

// TestLevelAndPriorityShed drives the latency component of the load
// signal with a fake clock: slow searches push Level to 1, which sheds
// reindex/ingest/delete (in that threshold order) while search itself is
// still admitted.
func TestLevelAndPriorityShed(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		Limit:         [NumClasses]int{Search: 8, Ingest: 2, Delete: 2, Reindex: 1},
		LatencyBudget: time.Second,
		LatencyWindow: 10 * time.Second,
		Now:           clk.now,
	})
	ctx := context.Background()
	if lvl := c.Level(); lvl != 0 {
		t.Fatalf("idle level = %v, want 0", lvl)
	}
	// Complete a few searches at 3× the latency budget: p95/budget - 1 = 2
	// clamps the level to 1.
	for i := 0; i < 5; i++ {
		tk, err := c.Acquire(ctx, Search)
		if err != nil {
			t.Fatal(err)
		}
		clk.advance(3 * time.Second)
		tk.Release()
	}
	if lvl := c.Level(); lvl != 1 {
		t.Fatalf("level after slow searches = %v, want 1", lvl)
	}
	for _, class := range []Class{Reindex, Ingest, Delete} {
		_, err := c.Acquire(ctx, class)
		var shed *ShedError
		if !errors.As(err, &shed) || !shed.Overload {
			t.Fatalf("%v at level 1: err=%v, want overload ShedError", class, err)
		}
	}
	tk, err := c.Acquire(ctx, Search)
	if err != nil {
		t.Fatalf("search must never be level-shed: %v", err)
	}
	tk.Release()
	if ok, reason := c.Shedding(); !ok || reason == "" {
		t.Fatalf("Shedding() = %v %q after level sheds", ok, reason)
	}
	// Load clears: the samples age out of the window and the shed
	// hysteresis lapses.
	clk.advance(time.Minute)
	if lvl := c.Level(); lvl != 0 {
		t.Fatalf("level after window expiry = %v, want 0", lvl)
	}
	if ok, _ := c.Shedding(); ok {
		t.Fatal("Shedding() still true after ShedWindow lapsed")
	}
	if _, err := c.Acquire(ctx, Reindex); err != nil {
		t.Fatalf("reindex after load cleared: %v", err)
	}
}

// TestComputedRetryAfter pins the estimator: with an observed 10s service
// time, limit 1 and one queued waiter, a new arrival is told to come back
// in backlog × service / limit = 2 × 10s = 20s.
func TestComputedRetryAfter(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		Limit: [NumClasses]int{Reindex: 1},
		Queue: [NumClasses]int{Reindex: 1},
		Now:   clk.now,
	})
	ctx := context.Background()
	// Teach the EWMA a 10s service time with one completed reindex.
	tk, err := c.Acquire(ctx, Reindex)
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Second)
	tk.Release()

	holder, err := c.Acquire(ctx, Reindex)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Release()
	queued := make(chan struct{})
	go func() {
		tk, err := c.Acquire(ctx, Reindex)
		if err == nil {
			tk.Release()
		}
		close(queued)
	}()
	waitForQueued(t, c, Reindex, 1)

	_, err = c.Acquire(ctx, Reindex)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("want ShedError, got %v", err)
	}
	if shed.RetryAfter != 20*time.Second {
		t.Fatalf("RetryAfter = %v, want 20s (2 backlog × 10s service / limit 1)", shed.RetryAfter)
	}
	if got := RetryAfterSeconds(shed.RetryAfter); got != 20 {
		t.Fatalf("RetryAfterSeconds = %d, want 20", got)
	}
	holder.Release()
	<-queued
}

// TestRetryAfterClamped keeps the estimate inside [1s, 60s] at both ends.
func TestRetryAfterClamped(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		Limit: [NumClasses]int{Ingest: 1},
		Now:   clk.now,
	})
	// No completions yet: the default service guess still yields >= 1s.
	if d := c.RetryAfter(Ingest); d < time.Second {
		t.Fatalf("cold RetryAfter = %v, want >= 1s", d)
	}
	// A pathological 10-minute service time clamps at the 60s ceiling.
	tk, err := c.Acquire(context.Background(), Ingest)
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(10 * time.Minute)
	tk.Release()
	if d := c.RetryAfter(Ingest); d != time.Minute {
		t.Fatalf("clamped RetryAfter = %v, want 60s", d)
	}
}

// TestReleaseIdempotent double-releases a ticket and checks the books
// still balance.
func TestReleaseIdempotent(t *testing.T) {
	c := New(Config{Limit: [NumClasses]int{Delete: 1}})
	tk, err := c.Acquire(context.Background(), Delete)
	if err != nil {
		t.Fatal(err)
	}
	tk.Release()
	tk.Release()
	if got := c.Snapshot().Classes[Delete].InFlight; got != 0 {
		t.Fatalf("in-flight after double release = %d, want 0", got)
	}
	tk2, err := c.Acquire(context.Background(), Delete)
	if err != nil {
		t.Fatal(err)
	}
	tk2.Release()
}

// TestSnapshotShape checks the stats view carries every class with its
// configured limit.
func TestSnapshotShape(t *testing.T) {
	c := New(Config{})
	snap := c.Snapshot()
	if len(snap.Classes) != int(NumClasses) {
		t.Fatalf("snapshot has %d classes, want %d", len(snap.Classes), NumClasses)
	}
	for class := Class(0); class < NumClasses; class++ {
		row := snap.Classes[class]
		if row.Class != class.String() {
			t.Fatalf("class %d named %q, want %q", class, row.Class, class.String())
		}
		if row.Limit <= 0 {
			t.Fatalf("class %v default limit = %d, want > 0", class, row.Limit)
		}
	}
	if snap.Level != 0 || snap.Shedding {
		t.Fatalf("idle snapshot: level=%v shedding=%v", snap.Level, snap.Shedding)
	}
}

// TestLevelAllocFree fills the latency ring with a permutation of 1..512 ms
// and reads the load level: the p95 is the 487th-smallest sample, and the
// read allocates nothing (the sort reuses the controller's scratch).
func TestLevelAllocFree(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LatencyBudget: 250 * time.Millisecond, LatencyWindow: time.Hour, Now: clk.now})
	ctx := context.Background()
	for i := 0; i < maxLatSamples; i++ {
		tk, err := c.Acquire(ctx, Search)
		if err != nil {
			t.Fatal(err)
		}
		clk.advance(time.Duration(i*37%maxLatSamples+1) * time.Millisecond)
		tk.Release()
	}
	want := float64(487*time.Millisecond)/float64(250*time.Millisecond) - 1
	if lvl := c.Level(); lvl != want {
		t.Fatalf("level = %v, want %v (p95 = 487ms)", lvl, want)
	}
	if n := testing.AllocsPerRun(100, func() { c.Level() }); n != 0 {
		t.Fatalf("Level() allocates %v times per run, want 0", n)
	}
}
