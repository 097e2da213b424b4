package eval

import (
	"context"
	"fmt"
	"strings"

	"cbvr/internal/core"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

// Cutoffs are the paper's Table 1 precision cut-offs.
var Cutoffs = [4]int{20, 30, 50, 100}

// Table1Config sizes the Table 1 reproduction.
type Table1Config struct {
	// VideosPerCategory sizes the ingested corpus (default 8).
	VideosPerCategory int
	// QueriesPerCategory sizes the held-out query set (default 4).
	QueriesPerCategory int
	// Video controls the synthetic clips (dimensions default to the
	// synthvid defaults).
	Video synthvid.Config
	// Seed derives both corpus and query seeds (default 1).
	Seed int64
}

func (c Table1Config) withDefaults() Table1Config {
	if c.VideosPerCategory <= 0 {
		c.VideosPerCategory = 8
	}
	if c.QueriesPerCategory <= 0 {
		c.QueriesPerCategory = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	// Default clips are long enough that each category contributes a
	// meaningful relevant pool at the paper's deepest cut-off (k=100),
	// and noisy enough that no single feature saturates.
	if c.Video.Frames == 0 {
		c.Video.Frames = 72
	}
	if c.Video.Shots == 0 {
		c.Video.Shots = 8
	}
	if c.Video.Noise == 0 {
		c.Video.Noise = 18
	}
	return c
}

// Method names a Table 1 column: one feature kind, or the combination.
type Method struct {
	Name  string
	Kinds []features.Kind // empty means all (combined)
}

// Table1Methods returns the paper's column order: GLCM, Gabor, Tamura,
// Histogram, Autocorrelogram, Simple Region Growing, Combined.
func Table1Methods() []Method {
	return []Method{
		{Name: "GLCM", Kinds: []features.Kind{features.KindGLCM}},
		{Name: "Gabor", Kinds: []features.Kind{features.KindGabor}},
		{Name: "Tamura", Kinds: []features.Kind{features.KindTamura}},
		{Name: "Histogram", Kinds: []features.Kind{features.KindHistogram}},
		{Name: "Autocorrelogram", Kinds: []features.Kind{features.KindCorrelogram}},
		{Name: "SimpleRegionGrowing", Kinds: []features.Kind{features.KindRegions}},
		{Name: "Combined", Kinds: nil},
	}
}

// Table1Row is one method's measured precision at the four cut-offs.
type Table1Row struct {
	Method string
	P      [4]float64 // precision at 20, 30, 50, 100
}

// Table1Result carries the full reproduction outcome.
type Table1Result struct {
	Rows      []Table1Row
	Queries   int
	KeyFrames int
	Corpus    int // ingested videos
}

// Query is one held-out evaluation query.
type Query struct {
	Frame    *imaging.Image
	Category synthvid.Category
}

// BuildCorpus generates and ingests the Table 1 corpus into the engine.
func BuildCorpus(eng *core.Engine, cfg Table1Config) (int, error) {
	cfg = cfg.withDefaults()
	vc := cfg.Video
	vc.Seed = cfg.Seed
	videos := synthvid.GenerateCorpus(cfg.VideosPerCategory, vc)
	for _, v := range videos {
		if _, err := eng.IngestFramesCtx(context.Background(), v.Name, v.Frames, v.FPS); err != nil {
			return 0, fmt.Errorf("eval: ingest %s: %w", v.Name, err)
		}
	}
	return len(videos), nil
}

// BuildQueries generates held-out query frames: fresh clips (seeds
// disjoint from the corpus) whose middle-of-shot frames act as queries.
func BuildQueries(cfg Table1Config) []Query {
	cfg = cfg.withDefaults()
	var out []Query
	for _, cat := range synthvid.AllCategories() {
		for q := 0; q < cfg.QueriesPerCategory; q++ {
			vc := cfg.Video
			// Offset well past any corpus seed derivation.
			vc.Seed = cfg.Seed + 1_000_003 + int64(q)*13_007 + int64(cat)*131_071
			v := synthvid.Generate(cat, vc)
			// Pick the middle frame of a shot that varies with q.
			shot := q % len(v.ShotStarts)
			start := v.ShotStarts[shot]
			end := len(v.Frames)
			if shot+1 < len(v.ShotStarts) {
				end = v.ShotStarts[shot+1]
			}
			out = append(out, Query{Frame: v.Frames[(start+end)/2], Category: cat})
		}
	}
	return out
}

// CategoryOfVideoName recovers the ground-truth category from a corpus
// video name ("sports_03" → Sports).
func CategoryOfVideoName(name string) (synthvid.Category, bool) {
	i := strings.LastIndex(name, "_")
	if i < 0 {
		return 0, false
	}
	cat, err := synthvid.ParseCategory(name[:i])
	if err != nil {
		return 0, false
	}
	return cat, true
}

// RunTable1 evaluates every Table 1 method over the query set against an
// engine already holding the corpus.
func RunTable1(eng *core.Engine, queries []Query) (*Table1Result, error) {
	methods := Table1Methods()
	res := &Table1Result{Queries: len(queries)}
	kf, err := eng.CacheSize()
	if err != nil {
		return nil, err
	}
	res.KeyFrames = kf

	// Describe each query once — descriptors and range bucket from one
	// shared-plane pass; each method call reuses them.
	qsets := make([]*features.Set, len(queries))
	qbuckets := make([]rangeindex.Range, len(queries))
	for i, q := range queries {
		qsets[i], qbuckets[i] = core.Describe(q.Frame.Source(), nil)
	}

	maxK := Cutoffs[len(Cutoffs)-1]
	for _, m := range methods {
		row := Table1Row{Method: m.Name}
		per := make([][4]float64, 0, len(queries))
		for qi, q := range queries {
			matches, err := eng.SearchWithSet(qsets[qi], qbuckets[qi], core.SearchOptions{
				K:     maxK,
				Kinds: m.Kinds,
				// Table 1 measures feature quality; pruning is an
				// efficiency device benchmarked separately (Fig. 7), so
				// rank over all candidates here.
				NoPruning: true,
			})
			if err != nil {
				return nil, err
			}
			relevant := make([]bool, len(matches))
			for i, match := range matches {
				cat, ok := CategoryOfVideoName(match.VideoName)
				relevant[i] = ok && cat == q.Category
			}
			var ps [4]float64
			for ci, k := range Cutoffs {
				ps[ci] = PrecisionAtK(relevant, k)
			}
			per = append(per, ps)
		}
		for ci := range Cutoffs {
			var s float64
			for _, ps := range per {
				s += ps[ci]
			}
			row.P[ci] = s / float64(len(per))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// PaperTable1 returns the published Table 1 values for side-by-side
// reporting in EXPERIMENTS.md and the bench harness.
func PaperTable1() []Table1Row {
	return []Table1Row{
		{Method: "GLCM", P: [4]float64{0.435, 0.423, 0.410, 0.354}},
		{Method: "Gabor", P: [4]float64{0.586, 0.528, 0.489, 0.396}},
		{Method: "Tamura", P: [4]float64{0.568, 0.514, 0.469, 0.412}},
		{Method: "Histogram", P: [4]float64{0.398, 0.368, 0.324, 0.310}},
		{Method: "Autocorrelogram", P: [4]float64{0.412, 0.405, 0.369, 0.342}},
		{Method: "SimpleRegionGrowing", P: [4]float64{0.520, 0.468, 0.434, 0.397}},
		{Method: "Combined", P: [4]float64{0.629, 0.553, 0.494, 0.421}},
	}
}

// FormatTable renders rows in the paper's layout.
func FormatTable(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %8s %8s %8s %8s\n", "Method", "P@20", "P@30", "P@50", "P@100")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %8.3f %8.3f %8.3f %8.3f\n", r.Method, r.P[0], r.P[1], r.P[2], r.P[3])
	}
	return sb.String()
}

// Row returns the named row, or nil.
func (r *Table1Result) Row(method string) *Table1Row {
	for i := range r.Rows {
		if r.Rows[i].Method == method {
			return &r.Rows[i]
		}
	}
	return nil
}
