package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// resultFile is what -out writes: the runs and the environment they ran in.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []result    `json:"runs"`
}

// environment is recorded with every result file, because a number from
// another box or another commit is another number.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func recordEnv(repoRoot string) environment {
	e := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// repeatRuns runs n seeds of each workload, each in a child process of its
// own (the way the driver runs them, and so that one run's memory is not
// the next one's peak), and prints the spread of every metric.
func repeatRuns(mf *manifest, names []string, n int, seed int64, seconds float64, traced int, smoke bool, serverBin, outPath string) int {
	var err error
	if serverBin == "" {
		if serverBin, err = buildServer(mf.root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	file := resultFile{Env: recordEnv(mf.root)}
	code := 0
	for _, name := range names {
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(s, 10), "-seconds", fmt.Sprint(seconds),
				"-trace", strconv.Itoa(traced), "-server", serverBin, "-manifest", mf.path,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			res, perr := parseResultLine(out)
			if err != nil || perr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v %v\n", name, s, err, perr)
				code = 1
				continue
			}
			res.Workload, res.Seed, res.Trace = name, s, traced
			if !res.Correct {
				code = 1
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed %d done, correct=%v\n", name, s, res.Correct)
			file.Runs = append(file.Runs, res)
		}
	}
	printSpread(mf, &file)
	if outPath != "" {
		if err := file.write(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// parseResultLine reads the last line of a run's standard output.
func parseResultLine(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	res := result{Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: make(map[string]float64)}
	for k, v := range line.Metrics {
		res.Metrics[k] = v.Value
	}
	return res, nil
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), which is what the acceptance check uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// series collects, per workload and metric, the values of a file's runs.
func series(f *resultFile) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], v)
		}
	}
	return out
}

func (mf *manifest) decls() []metricDecl {
	return append(append([]metricDecl(nil), mf.EndToEnd...), mf.PerLayer...)
}

// printSpread prints, per workload and metric, the median, the quartiles,
// the spread between them as a share of the median, and the declared bound.
func printSpread(mf *manifest, f *resultFile) {
	byWorkload := series(f)
	fmt.Printf("%-18s %-36s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, w := range mf.workloadNames() {
		for _, m := range mf.decls() {
			vs := byWorkload[w][m.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.3f", m.Bound)
			}
			fmt.Printf("%-18s %-36s %3d %12.4f %12.4f %12.4f %8.4f %6s\n", w, m.Name, len(vs), q2, q1, q3, spread, bound)
		}
	}
}

// compareFiles holds the medians of the second file against the first. An
// end-to-end metric that got worse by more than its bound, as a share of
// the first median, fails the comparison.
func compareFiles(mf *manifest, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return compareSets(mf, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(mf *manifest, a, b *resultFile) int {
	sa, sb := series(a), series(b)
	code := 0
	fmt.Printf("%-18s %-36s %12s %12s %9s %6s  %s\n", "workload", "metric", "median a", "median b", "change", "bound", "verdict")
	for _, w := range mf.workloadNames() {
		for _, m := range mf.decls() {
			va, vb := sa[w][m.Name], sb[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict, bound := "", ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.3f", m.Bound)
				verdict = "ok"
				if worse > m.Bound {
					verdict = "WORSE"
					code = 1
				}
			}
			fmt.Printf("%-18s %-36s %12.4f %12.4f %+8.2f%% %6s  %s\n", w, m.Name, ma, mb, change*100, bound, verdict)
		}
	}
	return code
}
