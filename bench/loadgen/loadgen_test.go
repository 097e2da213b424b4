package loadgen

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestHighestLevelNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},   // 5 beyond the median
		{21, 0.50, true}, // 10 beyond p50, 2 beyond p90
		{101, 0.90, true},
		{201, 0.95, true},
		{350, 0.95, true},    // 3 beyond p99
		{1001, 0.99, true},   // 10 beyond p99, 1 beyond p999
		{10001, 0.999, true}, //
	}
	for _, c := range cases {
		got, ok := Highest(c.n, MinBeyond)
		if ok != c.ok || got != c.want {
			t.Errorf("Highest(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantilePicksNearestRankAndRefuses(t *testing.T) {
	var s []time.Duration
	for i := 200; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]time.Duration{0.50: 100 * time.Millisecond, 0.90: 180 * time.Millisecond, 0.95: 190 * time.Millisecond} {
		got, err := Quantile(s, q, MinBeyond)
		if err != nil || got != want {
			t.Errorf("p%g = %v, %v; want %v", q*100, got, err, want)
		}
	}
	if s[0] != 200*time.Millisecond {
		t.Error("Quantile reordered its input")
	}
	if _, err := Quantile(s, 0.99, MinBeyond); err == nil {
		t.Error("p99 over 200 samples has 2 beyond it and was not refused")
	}
	if _, err := Quantile(nil, 0.5, 0); err == nil {
		t.Error("a quantile of no samples was not refused")
	}
	if got, err := Quantile(s[:20], 0.95, 0); err != nil || got != 199*time.Millisecond {
		t.Errorf("p95 of 20 with no minimum = %v, %v", got, err)
	}
}

// fakeClock advances by step on every reading, so a run's timings are a
// function of how often the driver looks at the clock.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestRunExcludesWarmupAndCountsFailures(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0), step: time.Millisecond}
	var mu sync.Mutex
	seen := map[int][]int{}
	boom := errors.New("boom")
	res := Run(Config{Clients: 3, Warmup: 2, MaxOps: 5, Now: clock.Now}, func(c, i int) error {
		mu.Lock()
		seen[c] = append(seen[c], i)
		mu.Unlock()
		if c == 1 && i == 4 {
			return boom
		}
		return nil
	})
	for c := 0; c < 3; c++ {
		if len(seen[c]) != 7 {
			t.Fatalf("client %d ran ops %v, want 0..6", c, seen[c])
		}
		for i, got := range seen[c] {
			if got != i {
				t.Fatalf("client %d ran ops %v, want 0..6 in order", c, seen[c])
			}
		}
	}
	if res.Attempted != 21 || res.Failed != 1 || !errors.Is(res.Err, boom) {
		t.Errorf("attempted %d failed %d err %v; want 21, 1, boom", res.Attempted, res.Failed, res.Err)
	}
	if n := len(res.Latencies()); n != 14 {
		t.Errorf("%d timed latencies, want 3×5 less the failed op", n)
	}
	if len(res.PerClient[1]) != 4 {
		t.Errorf("client 1 has %d latencies, want 4", len(res.PerClient[1]))
	}
	for _, d := range res.Latencies() {
		if d <= 0 {
			t.Errorf("latency %v is not positive on a clock that only advances", d)
		}
	}
	if res.Wall <= 0 || res.WarmupWall <= 0 {
		t.Errorf("wall %v, warm-up wall %v", res.Wall, res.WarmupWall)
	}
}

func TestRunStopsAtDuration(t *testing.T) {
	// One client on a clock that moves 1ms per reading: the driver reads
	// it twice per op, so a 10ms window holds five ops and no sixth starts.
	clock := &fakeClock{now: time.Unix(0, 0), step: time.Millisecond}
	ops := 0
	res := Run(Config{Clients: 1, Duration: 10 * time.Millisecond, Now: clock.Now}, func(int, int) error {
		ops++
		return nil
	})
	if ops != 5 || len(res.PerClient[0]) != 5 {
		t.Errorf("%d ops ran in a 10ms window at 2ms per op, want 5", ops)
	}
	for _, d := range res.PerClient[0] {
		if d != time.Millisecond {
			t.Errorf("latency %v, want the clock's 1ms step", d)
		}
	}
	if res.Wall != res.ClientWall[0] || res.Wall < 10*time.Millisecond {
		t.Errorf("wall %v, client wall %v", res.Wall, res.ClientWall[0])
	}
}

func TestRunWarmupOnly(t *testing.T) {
	ops := 0
	var mu sync.Mutex
	res := Run(Config{Clients: 2, Warmup: 3}, func(int, int) error {
		mu.Lock()
		ops++
		mu.Unlock()
		return nil
	})
	if ops != 6 || len(res.Latencies()) != 0 || res.Attempted != 6 {
		t.Errorf("%d ops, %d timed, %d attempted; want 6, 0, 6", ops, len(res.Latencies()), res.Attempted)
	}
}

var tinyShape = Shape{Width: 64, Height: 48, Frames: 6, Shots: 2}

func TestGeneratorsAreDeterministic(t *testing.T) {
	gen := func(seed int64) ([]Container, []QueryFrame) {
		cs, err := Containers(seed, 2, tinyShape)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := QueryFrames(seed, 1, 2, tinyShape)
		if err != nil {
			t.Fatal(err)
		}
		return cs, qs
	}
	c1, q1 := gen(7)
	c2, q2 := gen(7)
	c3, q3 := gen(8)
	if len(c1) != 12 || len(q1) != 12 {
		t.Fatalf("%d containers and %d query frames, want 12 and 12", len(c1), len(q1))
	}
	sameC, sameQ := 0, 0
	for i := range c1 {
		if c1[i].Name != c2[i].Name || !bytes.Equal(c1[i].Bytes, c2[i].Bytes) {
			t.Errorf("container %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(c1[i].Bytes, c3[i].Bytes) {
			sameC++
		}
	}
	for i := range q1 {
		if q1[i].Category != q2[i].Category || !bytes.Equal(q1[i].JPEG, q2[i].JPEG) {
			t.Errorf("query frame %d differs between two runs of seed 7", i)
		}
		if bytes.Equal(q1[i].JPEG, q3[i].JPEG) {
			sameQ++
		}
	}
	if sameC > 0 || sameQ > 0 {
		t.Errorf("seeds 7 and 8 share %d containers and %d query frames", sameC, sameQ)
	}
	// Held-out means held out: no query clip is a corpus clip.
	for _, c := range c1 {
		for _, q := range q1 {
			if bytes.Contains(c.Bytes, q.JPEG) {
				t.Errorf("a query frame is a frame of corpus container %s", c.Name)
			}
		}
	}
}

func TestOrderIsASeededPermutation(t *testing.T) {
	a, b := Order(3, 0, 50), Order(3, 0, 50)
	other, client1 := Order(4, 0, 50), Order(3, 1, 50)
	seen := make([]bool, 50)
	differSeed, differClient := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave two orders")
		}
		seen[a[i]] = true
		differSeed = differSeed || a[i] != other[i]
		differClient = differClient || a[i] != client1[i]
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("order misses input %d", i)
		}
	}
	if !differSeed || !differClient {
		t.Error("order does not depend on seed and client")
	}
}
