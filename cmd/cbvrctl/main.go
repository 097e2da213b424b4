// Command cbvrctl administers and queries a CBVR database from the shell.
// It covers both roles from the paper's use-case diagram: the
// administrator (add / delete / inspect videos) and the user (query by
// frame or clip).
//
//	cbvrctl init     -db cbvr.db
//	cbvrctl gen      -db cbvr.db -videos 4            # synthetic corpus
//	cbvrctl ingest   -db cbvr.db -file clip.cvj -name holiday
//	cbvrctl list     -db cbvr.db
//	cbvrctl query    -db cbvr.db -image frame.jpg -k 10
//	cbvrctl queryvid -db cbvr.db -file clip.cvj -k 5
//	cbvrctl describe -image frame.jpg                 # Fig. 8 output
//	cbvrctl export   -db cbvr.db -id 3 -out clip.cvj
//	cbvrctl delete   -db cbvr.db -id 3
//	cbvrctl reindex  -db cbvr.db [-id 3]              # rebuild feature rows
//	cbvrctl stats    -db cbvr.db
//	cbvrctl fsck     -db cbvr.db                      # offline verifier
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cbvr"
	"cbvr/internal/eval"
	"cbvr/internal/features"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
	"cbvr/tools/cbvrvet/analyzers"
	"cbvr/tools/cbvrvet/driver"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Interruptible commands (long ingests, reindex sweeps, searches) run
	// under a signal context: ^C aborts the in-flight operation at its next
	// cancellation point (nothing half-commits) and the store closes clean
	// through the defers. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "init":
		err = cmdInit(args)
	case "gen":
		err = cmdGen(ctx, args)
	case "ingest":
		err = cmdIngest(ctx, args)
	case "list":
		err = cmdList(args)
	case "query":
		err = cmdQuery(ctx, args)
	case "queryvid":
		err = cmdQueryVid(ctx, args)
	case "describe":
		err = cmdDescribe(args)
	case "export":
		err = cmdExport(args)
	case "delete":
		err = cmdDelete(args)
	case "reindex":
		err = cmdReindex(ctx, args)
	case "stats":
		err = cmdStats(args)
	case "fsck":
		err = cmdFsck(args)
	case "vet":
		// Hidden developer command: run the cbvrvet static-analysis suite
		// over the repository (equivalent to `go run ./tools/cbvrvet`).
		err = cmdVet(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbvrctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cbvrctl <init|gen|ingest|list|query|queryvid|describe|export|delete|reindex|stats|fsck> [flags]
run "cbvrctl <command> -h" for command flags`)
}

func openSystem(path string) (*cbvr.System, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -db flag")
	}
	return cbvr.Open(path, cbvr.Options{})
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	fs.Parse(args)
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Printf("initialised %s\n", *db)
	return nil
}

func cmdGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	videos := fs.Int("videos", 2, "videos per category")
	frames := fs.Int("frames", 48, "frames per video")
	shots := fs.Int("shots", 5, "shots per video")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	corpus := cbvr.GenerateCorpus(*videos, cbvr.VideoConfig{Frames: *frames, Shots: *shots, Seed: *seed})
	// Each ingest runs under the signal context: ^C finishes nothing
	// half-way — completed videos stay committed, the in-flight one
	// aborts clean.
	for name, imgs := range corpus {
		res, err := sys.IngestFramesCtx(ctx, name, imgs, 12)
		if err != nil {
			return err
		}
		fmt.Printf("ingested %-14s video=%d frames=%d keyframes=%d\n",
			name, res.VideoID, res.NumFrames, len(res.KeyFrameIDs))
	}
	return nil
}

func cmdIngest(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	file := fs.String("file", "", "CVJ container file")
	name := fs.String("name", "", "video name (default: file name)")
	server := fs.String("server", "", "cbvr-server base URL (remote mode; replaces -db)")
	retries := fs.Int("retries", 4, "remote mode: retry attempts beyond the first")
	timeout := fs.Duration("timeout", 30*time.Second, "remote mode: per-attempt budget")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("missing -file flag")
	}
	if *name == "" {
		*name = strings.TrimSuffix(*file, ".cvj")
	}
	if *server != "" {
		// Remote mode reopens the file per attempt: a half-sent body from
		// a shed attempt cannot be replayed.
		return remoteIngest(ctx, newRetryClient(*retries, *timeout), *server, *name, func() (io.ReadCloser, error) {
			return os.Open(*file)
		})
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	// Stream the container from disk: constant-memory ingest regardless of
	// clip length, and ^C aborts within one decode iteration.
	res, err := sys.IngestVideoStreamCtx(ctx, *name, f)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %s: video=%d frames=%d keyframes=%d\n",
		*name, res.VideoID, res.NumFrames, len(res.KeyFrameIDs))
	return nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	fs.Parse(args)
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	vids, err := sys.Engine().Store().ListVideos(nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-20s %12s\n", "V_ID", "V_NAME", "BYTES")
	for _, v := range vids {
		fmt.Printf("%-6d %-20s %12d\n", v.ID, v.Name, v.VideoLen)
	}
	return nil
}

func parseKinds(s string) ([]cbvr.FeatureKind, error) {
	if s == "" {
		return nil, nil
	}
	var out []cbvr.FeatureKind
	for _, part := range strings.Split(s, ",") {
		k, err := features.ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	image := fs.String("image", "", "query JPEG")
	k := fs.Int("k", 10, "result count")
	kindsFlag := fs.String("features", "", "comma-separated feature subset (default: all)")
	noPrune := fs.Bool("noprune", false, "disable range-index pruning")
	server := fs.String("server", "", "cbvr-server base URL (remote mode; replaces -db)")
	retries := fs.Int("retries", 4, "remote mode: retry attempts beyond the first")
	timeout := fs.Duration("timeout", 30*time.Second, "remote mode: per-attempt budget")
	fs.Parse(args)
	if *image == "" {
		return fmt.Errorf("missing -image flag")
	}
	if *server != "" {
		if *kindsFlag != "" || *noPrune {
			return fmt.Errorf("-features and -noprune are local-only; the server chooses its own search plan")
		}
		jpeg, err := os.ReadFile(*image)
		if err != nil {
			return err
		}
		return remoteQuery(ctx, newRetryClient(*retries, *timeout), *server, jpeg, *k)
	}
	f, err := os.Open(*image)
	if err != nil {
		return err
	}
	query, err := cbvr.FromJPEG(f)
	f.Close()
	if err != nil {
		return err
	}
	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		return err
	}
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	matches, err := sys.SearchCtx(ctx, query, cbvr.SearchOptions{K: *k, Kinds: kinds, NoPruning: *noPrune})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %-8s %-20s %-8s %s\n", "RANK", "FRAME", "VIDEO", "IDX", "DISTANCE")
	for i, m := range matches {
		fmt.Printf("%-4d %-8d %-20s %-8d %.6f\n", i+1, m.KeyFrameID, m.VideoName, m.FrameIndex, m.Distance)
	}
	return nil
}

func cmdQueryVid(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("queryvid", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	file := fs.String("file", "", "query CVJ container")
	k := fs.Int("k", 5, "result count")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("missing -file flag")
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	_, frames, err := cbvr.DecodeVideo(f)
	f.Close()
	if err != nil {
		return err
	}
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	matches, err := sys.SearchVideoCtx(ctx, frames, cbvr.SearchOptions{K: *k})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %-6s %-20s %s\n", "RANK", "V_ID", "V_NAME", "DISTANCE")
	for i, m := range matches {
		fmt.Printf("%-4d %-6d %-20s %.6f\n", i+1, m.VideoID, m.VideoName, m.Distance)
	}
	return nil
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	image := fs.String("image", "", "JPEG to describe")
	seed := fs.Int64("seed", 0, "describe a generated frame instead (seed)")
	fs.Parse(args)
	var im *cbvr.Image
	switch {
	case *image != "":
		f, err := os.Open(*image)
		if err != nil {
			return err
		}
		defer f.Close()
		var derr error
		im, derr = cbvr.FromJPEG(f)
		if derr != nil {
			return derr
		}
	default:
		qs := eval.BuildQueries(eval.Table1Config{QueriesPerCategory: 1, Seed: *seed + 1})
		im = qs[0].Frame
	}
	strs, min, max := cbvr.DescribeFrame(im)
	fmt.Printf("Algorithm : SimpleColorHistogram\nOutput : min = %d, max=%d\nHistogram : %s\n\n",
		min, max, strs[cbvr.FeatureHistogram])
	fmt.Printf("Algorithm : GLCM_Texture\nOutput :\n%s\n\n", strs[cbvr.FeatureGLCM])
	fmt.Printf("Algorithm : Gabor Texture\nOutput :\n%s\n\n", strs[cbvr.FeatureGabor])
	fmt.Printf("Algorithm : Tamura Texture\nOutput :\n%s\n\n", strs[cbvr.FeatureTamura])
	regions, err := features.ParseRegions(strs[cbvr.FeatureRegions])
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm : SimpleRegionGrowing\nOutput : Majorregions : %d\n\n", regions.Major)
	fmt.Printf("Algorithm : AutoColorCorrelogram\nOutput :\n%s\n\n", strs[cbvr.FeatureCorrelogram])
	fmt.Printf("Algorithm : NaiveVector\nOutput :\n%s\n", strs[cbvr.FeatureNaive])
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	id := fs.Int64("id", 0, "video id")
	out := fs.String("out", "", "output CVJ path")
	fs.Parse(args)
	if *id == 0 || *out == "" {
		return fmt.Errorf("need -id and -out")
	}
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	raw, ok, err := sys.Engine().Store().VideoBytes(nil, *id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no video %d", *id)
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("exported video %d to %s (%d bytes)\n", *id, *out, len(raw))
	return nil
}

func cmdDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	id := fs.Int64("id", 0, "video id")
	fs.Parse(args)
	if *id == 0 {
		return fmt.Errorf("need -id")
	}
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.DeleteVideo(*id); err != nil {
		return err
	}
	fmt.Printf("deleted video %d\n", *id)
	return nil
}

func cmdReindex(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("reindex", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	id := fs.Int64("id", 0, "video id (0 = every stored video)")
	server := fs.String("server", "", "cbvr-server base URL (remote mode; replaces -db)")
	retries := fs.Int("retries", 4, "remote mode: retry attempts beyond the first")
	timeout := fs.Duration("timeout", 5*time.Minute, "remote mode: per-attempt budget (a sweep reextracts everything)")
	fs.Parse(args)
	if *server != "" {
		return remoteReindex(ctx, newRetryClient(*retries, *timeout), *server, *id)
	}
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	var results []*cbvr.ReindexResult
	if *id != 0 {
		res, err := sys.ReindexVideoCtx(ctx, *id)
		if err != nil {
			return err
		}
		results = []*cbvr.ReindexResult{res}
	} else {
		// Partial results still print: each video commits independently,
		// so completed rebuilds are durable even if a later one fails (or
		// the sweep is interrupted).
		results, err = sys.ReindexAllCtx(ctx)
	}
	for _, r := range results {
		fmt.Printf("reindexed %-20s video=%d keyframes=%d\n", r.VideoName, r.VideoID, r.KeyFrames)
	}
	return err
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	fs.Parse(args)
	sys, err := openSystem(*db)
	if err != nil {
		return err
	}
	defer sys.Close()
	st := sys.Engine().Store()
	nv, err := st.CountVideos(nil)
	if err != nil {
		return err
	}
	nk, err := st.CountKeyFrames(nil)
	if err != nil {
		return err
	}
	ds := st.DB().Stats()
	fmt.Printf("videos:       %d\n", nv)
	fmt.Printf("key frames:   %d\n", nk)
	fmt.Printf("commits:      %d\n", ds.Commits)
	fmt.Printf("wal records:  %d\n", ds.WALRecords)
	fmt.Printf("recovered:    %d txns at open\n", ds.Recovered)

	// Cell-index view: warms the search cache, so this reports exactly
	// the pruning state a search in this process would run against.
	cs, err := sys.Engine().CellStats()
	if err != nil {
		return err
	}
	fmt.Printf("cell index:   %d/%d shards built, %d cells over %d rows, %d rebuilds\n",
		cs.BuiltShards, cs.Shards, cs.Cells, cs.IndexedRows, cs.Rebuilds)

	if _, err := synthvid.ParseCategory("sports"); err == nil && nk > 0 {
		// Per-category frame counts when the corpus is synthetic.
		counts := make(map[string]int)
		vids, err := st.ListVideos(nil)
		if err != nil {
			return err
		}
		for _, v := range vids {
			if cat, ok := eval.CategoryOfVideoName(v.Name); ok {
				counts[cat.String()]++
			}
		}
		if len(counts) > 0 {
			fmt.Println("videos per category:")
			for _, c := range synthvid.AllCategories() {
				if n := counts[c.String()]; n > 0 {
					fmt.Printf("  %-10s %d\n", c, n)
				}
			}
		}
	}
	return nil
}

// cmdFsck opens the store (running WAL recovery first, exactly as any
// consumer would) and walks every page, btree and blob chain offline. Any
// corruption prints one line per problem and exits non-zero, so scripts
// and CI can gate on a clean store.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	db := fs.String("db", "", "database path")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("missing -db flag")
	}
	store, err := vstore.Open(*db, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	rep, err := vstore.Check(store)
	if err != nil {
		return err
	}
	fmt.Printf("pages: %d  tables: %d  rows: %d\n", rep.Pages, rep.Tables, rep.Rows)
	if !rep.Clean() {
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "fsck:", p)
		}
		return fmt.Errorf("%d problem(s) found", len(rep.Problems))
	}
	fmt.Println("ok")
	return nil
}

// cmdVet runs the cbvrvet static-analysis suite in-process over the
// given package patterns (default ./...). Deliberately absent from
// usage(): it is a developer and CI convenience, not part of the
// paper's administrator/user surface. Equivalent to
// `go run ./tools/cbvrvet ./...`.
func cmdVet(args []string) error {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	n, err := driver.Run(os.Stderr, "", args, analyzers.All())
	if err != nil {
		return err
	}
	if n > 0 {
		return fmt.Errorf("%d finding(s)", n)
	}
	fmt.Println("vet: clean")
	return nil
}
