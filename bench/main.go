// Command bench is the repository's benchmark: four named workloads
// against the real system, end-to-end metrics from an untraced run,
// per-layer metrics from a traced one, and correctness gates in both.
// BENCHMARK.json at the repository root declares the workloads, the
// metrics and their bounds; README.md in this directory explains them.
//
//	bash bench/run.sh --workload query_frame_http --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero if the
// run could not complete (then there is no such line), and also if an
// operation or a correctness gate failed (then the line says so).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"cbvr/bench/loadgen"
	"cbvr/bench/trace"
)

// runLimit is the harness's own timeout: past it the run is abandoned,
// children are killed and temp dirs removed.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or \"all\"")
		seed         = flag.Int64("seed", 1, "seed of corpus and query generation")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		serverBin    = flag.String("server", "", "cbvr-server binary; built into a temp dir if empty")
		manifestPath = flag.String("manifest", "", "BENCHMARK.json; found beside or above the working directory if empty")
		smoke        = flag.Bool("smoke", false, "toy sizes and ten ops per window: proves the plumbing, measures nothing")
		spansPath    = flag.String("spans", "", "with -trace 1, write the recorded spans to this file")
		repeat       = flag.Int("repeat", 0, "run this many seeds of each selected workload in child processes and print the spread")
		outPath      = flag.String("out", "", "write the results, with the recorded environment, to this file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if the second is worse by more than a bound")
	)
	flag.Parse()

	defer runCleanups()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	abandon := func(why string) {
		fmt.Fprintln(os.Stderr, "bench:", why)
		runCleanups()
		os.Exit(2)
	}
	go func() { abandon(fmt.Sprint("stopped by ", <-stop)) }()

	mf, err := loadManifest(*manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(mf, flag.Arg(0), flag.Arg(1))
	}

	names := []string{*workloadName}
	if *workloadName == "all" {
		names = mf.workloadNames()
	}
	if *repeat > 0 {
		return repeatRuns(mf, names, *repeat, *seed, *seconds, *traced, *smoke, *serverBin, *outPath)
	}

	time.AfterFunc(time.Duration(len(names))*runLimit, func() { abandon("run exceeded its time limit") })
	e := env{seed: *seed, sz: fullSizes, serverBin: *serverBin}
	if *smoke {
		e.sz = smokeSizes
	}
	if e.serverBin == "" {
		if e.serverBin, err = buildServer(mf.root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	window := time.Duration(*seconds * float64(time.Second))

	file := resultFile{Env: recordEnv(mf.root)}
	code := 0
	for _, name := range names {
		var err error
		if newWorkload, ok := workloads[name]; !ok {
			err = fmt.Errorf("no such workload")
		} else {
			w := newWorkload()
			var res result
			if *traced == 0 {
				res, err = runEndToEnd(w, e, window)
			} else {
				res, err = runLayers(w, e, window, *spansPath)
			}
			w.discard()
			if err == nil {
				res.Workload, res.Seed, res.Trace = name, *seed, *traced
				err = res.print(mf)
				file.Runs = append(file.Runs, res)
				if !res.Correct {
					code = 1
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	if *outPath != "" {
		if err := file.write(*outPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`

	samples  map[string]int // sample count behind a timing metric
	problems []string       // one line per failed gate
	notes    []string       // table lines that are no declared metric
}

// print writes the metric table and, last, the result line the driver
// reads. A metric the manifest does not declare, or a declared one that is
// missing, is an error: the two cannot drift.
func (r *result) print(mf *manifest) error {
	declared := mf.EndToEnd
	if r.Trace != 0 {
		declared = mf.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]valueUnit)}

	fmt.Printf("workload %s, seed %d, trace %d: %d ops attempted, %d failed\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, m := range declared {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in the manifest but was not measured", m.Name)
		}
		line.Metrics[m.Name] = valueUnit{v, m.Unit}
		if n, ok := r.samples[m.Name]; ok {
			fmt.Printf("  %-36s %14.4f %-6s n=%d\n", m.Name, v, m.Unit, n)
		} else {
			fmt.Printf("  %-36s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	if len(r.Metrics) != len(declared) {
		for name := range r.Metrics {
			if _, ok := line.Metrics[name]; !ok {
				return fmt.Errorf("metric %s was measured but is not declared in the manifest", name)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Println(" ", n)
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED GATE:", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// latency fills the latency metrics of a window and their sample counts.
func (r *result) latency(m measured, minBeyond int) error {
	for name, q := range map[string]float64{"op_p50_ms": 0.50, "op_p90_ms": 0.90} {
		d, err := loadgen.Quantile(m.lat, q, minBeyond)
		if err != nil {
			return err
		}
		r.Metrics[name] = loadgen.Millis(d)
		r.samples[name] = len(m.lat)
	}
	r.Metrics["ops_per_s"] = float64(len(m.lat)) / m.wall.Seconds()
	r.samples["ops_per_s"] = len(m.lat)
	// The declared tail is the p90 every workload's sample supports; the
	// table also shows the highest percentile this run's sample does.
	if q, ok := loadgen.Highest(len(m.lat), loadgen.MinBeyond); ok && q > 0.90 {
		d, _ := loadgen.Quantile(m.lat, q, loadgen.MinBeyond)
		r.notes = append(r.notes, fmt.Sprintf("%-36s %14.4f %-6s n=%d (highest percentile with %d samples beyond it)",
			fmt.Sprintf("op_p%g_ms", q*100), loadgen.Millis(d), "ms", len(m.lat), loadgen.MinBeyond))
	}
	return nil
}

// runEndToEnd is the untraced run: set up sz.setupRepeats times, measure
// one window, run the gates.
func runEndToEnd(w workload, e env, window time.Duration) (result, error) {
	res := result{Metrics: make(map[string]float64), samples: make(map[string]int)}
	if err := w.generate(e); err != nil {
		return res, fmt.Errorf("generate inputs: %w", err)
	}
	var setups []float64
	for i := 0; i < e.sz.setupRepeats; i++ {
		if i > 0 {
			w.discard()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	m := w.measure(window, nil)
	res.Attempted, res.Failed = m.attempted, m.failed
	if m.err != nil {
		res.problems = append(res.problems, "first failed op: "+m.err.Error())
	}
	if err := res.latency(m, e.sz.minBeyond); err != nil {
		return res, err
	}
	res.problems = append(res.problems, w.finish()...)
	res.Metrics["write_ops_per_s"] = w.writeRate()
	res.Metrics["quality_at_10"] = w.quality()
	res.Metrics["peak_rss_mb"] = w.peakRSS()
	res.Correct = len(res.problems) == 0 && res.Failed == 0
	return res, nil
}

// runLayers is the traced run: one set-up, a quarter window untraced and
// a quarter traced (their difference is the tracing overhead), a
// single-client pass, the gates, then the in-process replays and probes
// the per-layer metrics come from.
func runLayers(w workload, e env, window time.Duration, spansPath string) (result, error) {
	res := result{Metrics: make(map[string]float64), samples: make(map[string]int)}
	if err := w.generate(e); err != nil {
		return res, fmt.Errorf("generate inputs: %w", err)
	}
	// The probe inputs are the same on every workload, so that a layer's
	// speed reads the same whichever workload reports it.
	probeQueries, err := loadgen.QueryFrames(e.seed, 1, 2, e.sz.corpusShape)
	if err != nil {
		return res, err
	}
	probeUploads, err := loadgen.Containers(e.seed, 1, e.sz.uploadShape)
	if err != nil {
		return res, err
	}
	probeQueries, probeUploads = probeQueries[:e.sz.probeSet], probeUploads[:(e.sz.probeSet+1)/2]
	if err := w.setup(); err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}

	rec := trace.New()
	passes := []measured{w.measure(window/4, nil), w.measure(window/4, rec), w.idle(e.sz.idleOps)}
	var p50 [3]float64
	for i, m := range passes {
		res.Attempted += m.attempted
		res.Failed += m.failed
		if m.err != nil {
			res.problems = append(res.problems, "first failed op: "+m.err.Error())
		}
		d, err := loadgen.Quantile(m.lat, 0.5, e.sz.minBeyond)
		if err != nil {
			return res, err
		}
		p50[i] = loadgen.Millis(d)
	}
	untraced, traced, idle := p50[0], p50[1], p50[2]
	res.problems = append(res.problems, w.finish()...)

	rep, err := w.layers(rec, e.sz.replayOps)
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	probes, err := pixelProbes(probeQueries, probeUploads)
	if err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}
	spans := rec.Spans()
	for _, ms := range []map[string]float64{probes, rep.metrics, layerShares(spans)} {
		for k, v := range ms {
			res.Metrics[k] = v
		}
	}
	res.Metrics["core.warm_restart_ms"] = rep.restartMs
	res.Metrics["load.p50_vs_idle_ratio"] = untraced / idle
	res.Metrics["trace.overhead_share"] = (traced - untraced) / untraced
	res.Metrics["server.overhead_share"] = 0
	if rep.inprocP50 > 0 {
		res.Metrics["server.overhead_share"] = (idle - rep.inprocP50) / idle
	}
	res.Metrics["admission.refused_share"] = rep.refusedShare
	res.Metrics["admission.browned_share"] = rep.brownedShare
	res.Correct = len(res.problems) == 0 && res.Failed == 0

	if spansPath != "" {
		if err := trace.WriteJSON(spansPath, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// manifest is BENCHMARK.json: the declared workloads, metrics and bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`

	path string // where the file was read from
	root string // the directory that holds it: the repository root
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		mf := &manifest{}
		if err := json.Unmarshal(b, mf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		mf.path, mf.root = abs, filepath.Dir(abs)
		return mf, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json at %v", candidates)
}

func (mf *manifest) workloadNames() []string {
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return names
}
