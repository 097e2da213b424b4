// Package admission is the server's weighted admission controller: every
// request class (search, delete, ingest, reindex) gets a concurrency limit
// and a small bounded wait queue, and the controller sheds work it cannot
// serve promptly — lowest-priority classes first — with an error that
// carries a *computed* Retry-After derived from observed service times and
// current queue depth, never a hard-coded constant.
//
// The controller is also the server's one load signal: it folds live
// occupancy of the search class and the recent p95 search latency into a
// single [0,1] pressure level, computed once per admission and carried by
// the Ticket. The level drives priority shedding (Config.ShedAt) and is
// reported to clients; it changes nothing about how an admitted request
// runs.
//
// Everything here is pure bookkeeping under one mutex: no I/O, no
// allocation beyond the waiter nodes, and the only blocking point is the
// queued waiter's select, which runs strictly outside the lock.
package admission

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Class identifies one admission class. The numeric order IS the priority
// order: lower values are more important and shed later. Searches are the
// product and are never shed by level: the level is made of search
// occupancy and search latency, so shedding searches by it would turn the
// load they bring into missing answers, while each search is bounded and
// its own limit and queue already cap how many run. Deletes are small and
// free capacity; ingests are heavy but client-retryable; reindex is pure
// background maintenance and is the first thing to go.
type Class int

const (
	Search Class = iota
	Delete
	Ingest
	Reindex
	NumClasses // array bound, not a class
)

// String names the class for headers, stats and error text.
func (c Class) String() string {
	switch c {
	case Search:
		return "search"
	case Delete:
		return "delete"
	case Ingest:
		return "ingest"
	case Reindex:
		return "reindex"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Config tunes the controller. The zero value selects every default.
type Config struct {
	// Limit bounds concurrently admitted requests per class; <= 0 selects
	// the class default (searches and ingests scale with GOMAXPROCS,
	// reindex runs one at a time).
	Limit [NumClasses]int
	// Queue bounds waiters per class once the limit is reached; < 0 means
	// no queue (shed immediately), 0 selects the class default. Ingest
	// defaults to no queue: a queued upload is a client holding a body
	// stream open against a server that cannot read it yet, which is
	// exactly the slow-loris shape the watchdog exists to kill — turning
	// the upload away with 429 is cheaper for both sides.
	Queue [NumClasses]int
	// ShedAt is the load level at or above which the class is refused
	// outright (priority shedding, 503); <= 0 selects the class default.
	// Values > 1 mean "never shed by level" (the level saturates at 1).
	ShedAt [NumClasses]float64
	// MaxWait caps the time a request may sit queued before it is shed;
	// <= 0 selects 2s. Queued work past this age would blow its deadline
	// anyway, and shedding it keeps the queue a buffer, not a backlog.
	MaxWait time.Duration
	// LatencyBudget is the search service time the load level treats as the
	// ceiling: the latency component engages once the recent p95 exceeds
	// it and saturates at twice it. <= 0 selects 1s.
	LatencyBudget time.Duration
	// LatencyWindow bounds how long completed-search samples count toward
	// the p95; <= 0 selects 10s.
	LatencyWindow time.Duration
	// ShedWindow is how long after a shed Snapshot still reports Shedding
	// — the healthz hysteresis. <= 0 selects 5s.
	ShedWindow time.Duration
	// Now is the clock; nil selects time.Now. Tests inject a fake clock to
	// step the latency window and shed hysteresis deterministically.
	Now func() time.Time
}

// withDefaults resolves zero Config fields to their documented defaults.
func (cfg Config) withDefaults() Config {
	procs := runtime.GOMAXPROCS(0)
	defLimit := [NumClasses]int{
		Search:  2 * procs,
		Delete:  procs,
		Ingest:  2 * procs,
		Reindex: 1,
	}
	// Default queues are deliberately small: a queue deeper than the limit
	// just converts shed latency into deadline misses.
	defQueue := [NumClasses]int{
		Search:  2 * procs,
		Delete:  2,
		Ingest:  -1, // no queue; see the Queue doc comment
		Reindex: 1,
	}
	defShedAt := [NumClasses]float64{
		Search:  2.0,  // never: only the class limit and queue refuse a search
		Delete:  0.97, // sheds only at full saturation
		Ingest:  0.90,
		Reindex: 0.50, // background work is the first casualty
	}
	for c := Class(0); c < NumClasses; c++ {
		if cfg.Limit[c] <= 0 {
			cfg.Limit[c] = defLimit[c]
		}
		if cfg.Queue[c] == 0 {
			cfg.Queue[c] = defQueue[c]
		}
		if cfg.Queue[c] < 0 {
			cfg.Queue[c] = 0
		}
		if cfg.ShedAt[c] <= 0 {
			cfg.ShedAt[c] = defShedAt[c]
		}
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Second
	}
	if cfg.LatencyBudget <= 0 {
		cfg.LatencyBudget = time.Second
	}
	if cfg.LatencyWindow <= 0 {
		cfg.LatencyWindow = 10 * time.Second
	}
	if cfg.ShedWindow <= 0 {
		cfg.ShedWindow = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// ShedError is the admission refusal. Overload distinguishes the two HTTP
// shapes: true means the server is shedding the class to protect
// higher-priority work (503 Service Unavailable — the server's state, not
// the client's rate), false means the class itself is at capacity with a
// full queue (429 Too Many Requests — the client should pace itself).
// RetryAfter is computed from the class's observed service time and the
// backlog ahead of a new arrival; it is never a constant.
type ShedError struct {
	Class      Class
	Overload   bool
	RetryAfter time.Duration
	Reason     string
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("%s admission shed: %s (retry after %s)", e.Class, e.Reason, e.RetryAfter)
}

// Ticket is one admitted request; Release returns its slot and feeds the
// observed service time back into the Retry-After estimator.
type Ticket struct {
	c     *Controller
	class Class
	start time.Time
	level float64
	once  sync.Once
}

// Level is the load level the request was admitted at, in [0,1]: computed
// under the controller lock when Acquire admitted it directly, or when a
// release handed it a queue slot. Zero means no pressure.
func (t *Ticket) Level() float64 { return t.level }

// Release frees the slot. Safe to call more than once; only the first call
// counts.
func (t *Ticket) Release() {
	t.once.Do(func() { t.c.release(t.class, t.start) })
}

// waiter is one queued request. granted flips under Controller.mu exactly
// once: either the releaser hands it a slot (and closes ch), or the waiter
// abandons the queue on context death / MaxWait.
type waiter struct {
	ch      chan struct{}
	granted bool
	level   float64 // the load level at the grant; set with granted
}

// latSample is one completed search used by the p95 load component.
type latSample struct {
	at time.Time
	d  time.Duration
}

// maxLatSamples bounds the latency ring; at typical search rates this
// covers far more than LatencyWindow, and the bound keeps a traffic storm
// from growing the slice without limit.
const maxLatSamples = 512

// Controller is the admission state machine. One instance serves all
// classes; create it with New.
//
//cbvrvet:lockorder noio Controller.mu
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight [NumClasses]int
	waiters  [NumClasses][]*waiter
	sheds    [NumClasses]int64
	// ewma tracks per-class service time (seconds, α=0.2): the basis of
	// the computed Retry-After.
	ewma [NumClasses]float64
	// lastShed + shedReason drive the Snapshot Shedding hysteresis.
	lastShed   time.Time
	shedReason string
	// lat is a ring of recent completed-search latencies for the p95
	// component of the load level.
	lat    []latSample
	latPos int
	// p95buf is p95Locked's sort scratch, reused so reading the load
	// level allocates nothing.
	p95buf []time.Duration
}

// New builds a Controller from cfg (zero fields take defaults).
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Acquire admits one request of the given class, queueing briefly when the
// class is at its limit. It returns a *ShedError when the request is shed
// (by priority under load, a full queue, or queue-wait expiry) and the
// context error when ctx dies while queued.
func (c *Controller) Acquire(ctx context.Context, class Class) (*Ticket, error) {
	c.mu.Lock()
	now := c.cfg.Now()
	lvl := c.levelLocked(now)
	if lvl >= c.cfg.ShedAt[class] {
		err := c.shedLocked(class, now, true,
			fmt.Sprintf("load level %.2f at or above the %s shed threshold %.2f", lvl, class, c.cfg.ShedAt[class]))
		c.mu.Unlock()
		return nil, err
	}
	if c.inflight[class] < c.cfg.Limit[class] {
		c.inflight[class]++
		c.mu.Unlock()
		return &Ticket{c: c, class: class, start: now, level: lvl}, nil
	}
	if len(c.waiters[class]) >= c.cfg.Queue[class] {
		err := c.shedLocked(class, now, false,
			fmt.Sprintf("%s at capacity (%d in flight, %d queued)", class, c.inflight[class], len(c.waiters[class])))
		c.mu.Unlock()
		return nil, err
	}
	w := &waiter{ch: make(chan struct{})}
	c.waiters[class] = append(c.waiters[class], w)
	c.mu.Unlock()

	timer := time.NewTimer(c.cfg.MaxWait)
	defer timer.Stop()
	select {
	case <-w.ch:
		return &Ticket{c: c, class: class, start: c.cfg.Now(), level: w.level}, nil
	case <-ctx.Done():
		if c.abandon(class, w) {
			// Grant raced the cancellation: the slot is ours, so hand it
			// to the caller — its next ctx check fails fast anyway, and
			// releasing through the normal path keeps the books exact.
			return &Ticket{c: c, class: class, start: c.cfg.Now(), level: w.level}, nil
		}
		return nil, ctx.Err()
	case <-timer.C:
		if c.abandon(class, w) {
			return &Ticket{c: c, class: class, start: c.cfg.Now(), level: w.level}, nil
		}
		c.mu.Lock()
		err := c.shedLocked(class, c.cfg.Now(), true,
			fmt.Sprintf("%s queued longer than %s", class, c.cfg.MaxWait))
		c.mu.Unlock()
		return nil, err
	}
}

// abandon removes w from its queue; it reports true when a grant won the
// race (the caller then owns a slot it must use or Release).
func (c *Controller) abandon(class Class, w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.granted {
		return true
	}
	q := c.waiters[class]
	for i, cand := range q {
		if cand == w {
			c.waiters[class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	return false
}

// release returns a slot, updates the service-time EWMA and the search
// latency ring, and hands the slot to the oldest waiter if one is queued,
// with the load level at the hand-off.
func (c *Controller) release(class Class, start time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	if d := now.Sub(start); d >= 0 {
		sec := d.Seconds()
		if c.ewma[class] == 0 {
			c.ewma[class] = sec
		} else {
			c.ewma[class] = 0.8*c.ewma[class] + 0.2*sec
		}
		if class == Search {
			s := latSample{at: now, d: d}
			if len(c.lat) < maxLatSamples {
				c.lat = append(c.lat, s)
			} else {
				c.lat[c.latPos] = s
				c.latPos = (c.latPos + 1) % maxLatSamples
			}
		}
	}
	c.inflight[class]--
	if q := c.waiters[class]; len(q) > 0 && c.inflight[class] < c.cfg.Limit[class] {
		w := q[0]
		c.waiters[class] = q[1:]
		w.granted = true
		w.level = c.levelLocked(now)
		c.inflight[class]++
		close(w.ch)
	}
}

// shedLocked records a shed and builds the refusal with its computed
// Retry-After. Callers hold c.mu.
func (c *Controller) shedLocked(class Class, now time.Time, overload bool, reason string) *ShedError {
	c.sheds[class]++
	c.lastShed = now
	c.shedReason = reason
	return &ShedError{
		Class:      class,
		Overload:   overload,
		RetryAfter: c.retryAfterLocked(class),
		Reason:     reason,
	}
}

// retryAfterLocked estimates when a NEW arrival of the class would find a
// slot: the backlog ahead of it (current queue plus one full occupancy
// round) served at the observed per-slot service time, divided across the
// class's parallelism. Clamped to [1s, 60s] — below a second the client
// would busy-loop, above a minute the estimate is noise.
func (c *Controller) retryAfterLocked(class Class) time.Duration {
	svc := c.ewma[class]
	if svc <= 0 {
		svc = 0.5 // no completions observed yet; assume a cheap op
	}
	backlog := float64(len(c.waiters[class]) + 1)
	est := time.Duration(backlog * svc / float64(c.cfg.Limit[class]) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// RetryAfter exposes the computed estimate for callers that must attach a
// Retry-After to refusals originating outside the controller (degraded
// store, engine overload).
func (c *Controller) RetryAfter(class Class) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retryAfterLocked(class)
}

// levelLocked computes the load pressure in [0,1]: the max of a live
// search-occupancy component (engages at 75% of the limit, saturates at
// 150%; queued searches count) and a recent-p95-latency component
// (engages at the latency budget, saturates at twice it). Callers hold
// c.mu.
func (c *Controller) levelLocked(now time.Time) float64 {
	busy := float64(c.inflight[Search] + len(c.waiters[Search]))
	occ := busy / float64(c.cfg.Limit[Search])
	const occLow, occHigh = 0.75, 1.5
	lvl := clamp01((occ - occLow) / (occHigh - occLow))
	if p95 := c.p95Locked(now); p95 > 0 {
		lvl = math.Max(lvl, clamp01(float64(p95)/float64(c.cfg.LatencyBudget)-1))
	}
	return lvl
}

// p95Locked computes the p95 of search latencies inside LatencyWindow.
func (c *Controller) p95Locked(now time.Time) time.Duration {
	cutoff := now.Add(-c.cfg.LatencyWindow)
	fresh := c.p95buf[:0]
	for _, s := range c.lat {
		if s.at.After(cutoff) {
			fresh = append(fresh, s.d)
		}
	}
	c.p95buf = fresh
	if len(fresh) == 0 {
		return 0
	}
	slices.Sort(fresh)
	return fresh[(len(fresh)*95)/100]
}

// ClassSnapshot is one class's row in Snapshot.
type ClassSnapshot struct {
	Class         string  `json:"class"`
	Limit         int     `json:"limit"`
	InFlight      int     `json:"in_flight"`
	Queued        int     `json:"queued"`
	Shed          int64   `json:"shed"`
	AvgServiceMs  float64 `json:"avg_service_ms"`
	RetryAfterSec int     `json:"retry_after_sec"`
}

// Snapshot is the operational view served by /api/v1/stats and /healthz.
// Level is the load level a request admitted at the same instant would
// carry; Shedding reports a shed within ShedWindow, Reason the latest
// one's cause; Classes is indexed by Class.
type Snapshot struct {
	Level    float64         `json:"level"`
	Shedding bool            `json:"shedding"`
	Reason   string          `json:"reason,omitempty"`
	Classes  []ClassSnapshot `json:"classes"`
}

// Snapshot captures the controller state under one lock acquisition.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	snap := Snapshot{Level: c.levelLocked(now)}
	if !c.lastShed.IsZero() && now.Sub(c.lastShed) < c.cfg.ShedWindow {
		snap.Shedding = true
		snap.Reason = c.shedReason
	}
	for class := Class(0); class < NumClasses; class++ {
		snap.Classes = append(snap.Classes, ClassSnapshot{
			Class:         class.String(),
			Limit:         c.cfg.Limit[class],
			InFlight:      c.inflight[class],
			Queued:        len(c.waiters[class]),
			Shed:          c.sheds[class],
			AvgServiceMs:  c.ewma[class] * 1000,
			RetryAfterSec: RetryAfterSeconds(c.retryAfterLocked(class)),
		})
	}
	return snap
}

// RetryAfterSeconds renders a computed Retry-After duration as the integer
// seconds value the HTTP header carries, rounding up so the client never
// retries before the estimate.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return int(math.Ceil(d.Seconds()))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
