package loadgen

import (
	"sync"
	"time"
)

// Op executes operation i of one client's stream. i counts from 0 and
// runs on through warm-up into the timed ops, so a stream is one list.
type Op func(client, i int) error

// Config shapes one closed-loop run: each client sends its next op only
// after the previous one returned, the way a caller that waits for its
// reply does.
type Config struct {
	Clients int
	// Warmup ops per client run first and are not timed. The timed
	// window opens once every client has finished them.
	Warmup int
	// Duration ends the timed window: no client starts an op past it.
	// MaxOps bounds the timed ops per client. Either may be zero
	// (unbounded); with both zero only the warm-up runs.
	Duration time.Duration
	MaxOps   int
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

// Result is what one run measured.
type Result struct {
	// PerClient holds the latency of every timed op that succeeded, in
	// the order each client ran them.
	PerClient [][]time.Duration
	// ClientWall is, per client, the time from the window opening to the
	// end of that client's last timed op.
	ClientWall []time.Duration
	// Attempted and Failed count every op, warm-up included.
	Attempted, Failed int
	// Err is the first error any op returned.
	Err error
	// WarmupWall is the time the warm-up took; Wall the timed window
	// from its opening to the end of the last timed op of any client.
	WarmupWall, Wall time.Duration
}

// Latencies returns the timed latencies of all clients together.
func (r *Result) Latencies() []time.Duration {
	var all []time.Duration
	for _, c := range r.PerClient {
		all = append(all, c...)
	}
	return all
}

// Run drives op from cfg.Clients goroutines and returns once all have
// finished their stream.
func Run(cfg Config, op Op) Result {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	res := Result{
		PerClient:  make([][]time.Duration, cfg.Clients),
		ClientWall: make([]time.Duration, cfg.Clients),
	}
	var mu sync.Mutex
	count := func(err error) {
		mu.Lock()
		res.Attempted++
		if err != nil {
			res.Failed++
			if res.Err == nil {
				res.Err = err
			}
		}
		mu.Unlock()
	}

	begin := now()
	var warm, done sync.WaitGroup
	warm.Add(cfg.Clients)
	done.Add(cfg.Clients)
	open := make(chan time.Time)
	for c := 0; c < cfg.Clients; c++ {
		go func(c int) {
			defer done.Done()
			for i := 0; i < cfg.Warmup; i++ {
				count(op(c, i))
			}
			warm.Done()
			start := <-open
			for n := 0; cfg.Duration > 0 || cfg.MaxOps > 0; n++ {
				if cfg.MaxOps > 0 && n >= cfg.MaxOps {
					break
				}
				t0 := now()
				if cfg.Duration > 0 && t0.Sub(start) >= cfg.Duration {
					break
				}
				err := op(c, cfg.Warmup+n)
				t1 := now()
				count(err)
				if err == nil {
					res.PerClient[c] = append(res.PerClient[c], t1.Sub(t0))
				}
				res.ClientWall[c] = t1.Sub(start)
			}
		}(c)
	}
	warm.Wait()
	start := now()
	res.WarmupWall = start.Sub(begin)
	for c := 0; c < cfg.Clients; c++ {
		open <- start
	}
	done.Wait()
	for _, w := range res.ClientWall {
		res.Wall = max(res.Wall, w)
	}
	return res
}
