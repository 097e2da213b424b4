// Command cbvr-server serves one CBVR database to many clients over HTTP:
// the JSON API for programs and the paper's web pages (Figs. 2, 9, 10) for
// browsers, through the same handlers — every request runs under a
// deadline, searches and mutations pass admission, and shutdown drains
// in-flight requests. Seed a store before starting it with `cbvrctl gen`.
//
//	cbvr-server -db cbvr.db -addr :8081
//
// Routes (see internal/server and DESIGN.md "Server layer"):
//
//	POST   /api/v1/search         multipart "image" or raw JPEG body → ranked matches
//	GET    /api/v1/videos         store listing
//	DELETE /api/v1/videos?id=N    delete one video
//	POST   /api/v1/ingest         multipart "name" then "video", or raw CVJ body (?name=) → ingest
//	POST   /api/v1/reindex[?id=N] rebuild feature rows
//	GET    /api/v1/stats          search tally, cell index, admission snapshot and its load level
//	GET    /healthz               ok | browned-out | shedding | degraded
//	GET    /                      query form + video listing
//	POST   /search                multipart "image" (+ "k") → ranked thumbnail grid
//	GET    /video?id=N            video page with its key frames (Fig. 10)
//	GET    /frame?id=N            key-frame JPEG bytes
//	GET    /download?id=N         stored CVJ container
//	POST   /admin/upload          multipart "name" then "video" → 303 to /
//	POST   /admin/delete          form "id" → 303 to /
//	POST   /admin/reindex         form "id" (or none for all) → 303 to /
//
// The read routes (/healthz and the GET pages) also answer HEAD and refuse
// any other method with 405. A search response reports its admission
// ticket's load level in the X-CBVR-Brownout header.
//
// On SIGINT/SIGTERM the listener stops accepting, in-flight requests get
// -drain to finish, and past that their contexts are cancelled: staged
// ingest work is discarded uncommitted and the store closes clean either
// way. A second signal kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cbvr"
	"cbvr/internal/admission"
	"cbvr/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		db             = flag.String("db", "cbvr.db", "database path")
		addr           = flag.String("addr", ":8081", "listen address")
		maxUpload      = flag.Int64("max-upload", server.DefaultMaxUploadBytes, "request body cap in bytes")
		maxIngests     = flag.Int("max-ingests", 0, "max concurrently admitted ingests (0 = 2×GOMAXPROCS)")
		drain          = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		searchDeadline = flag.Duration("search-deadline", server.DefaultSearchDeadline, "server-assigned deadline for search/read requests")
		mutateDeadline = flag.Duration("mutate-deadline", server.DefaultMutateDeadline, "server-assigned deadline for ingest/reindex/delete")
		maxDeadline    = flag.Duration("max-deadline", server.DefaultMaxDeadline, "cap on the X-CBVR-Deadline-Ms client override")
		bodyStall      = flag.Duration("body-stall", server.DefaultBodyStallTimeout, "per-read upload stall watchdog (negative disables)")
	)
	flag.Parse()

	sys, err := cbvr.Open(*db, cbvr.Options{})
	if err != nil {
		log.Printf("cbvr-server: %v", err)
		return 1
	}
	opts := server.Options{
		MaxUploadBytes:   *maxUpload,
		SearchDeadline:   *searchDeadline,
		MutateDeadline:   *mutateDeadline,
		MaxDeadline:      *maxDeadline,
		BodyStallTimeout: *bodyStall,
	}
	opts.Admission.Limit[admission.Ingest] = *maxIngests
	api := server.New(sys, opts)
	// Header and idle timeouts bound what a connection may cost before it
	// carries an admitted request; body pace is the watchdog's job (a
	// blanket ReadTimeout would cut legitimately long uploads), and the
	// write timeout must outlive the longest admissible deadline.
	httpSrv := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      *maxDeadline + time.Minute,
	}

	// Listen explicitly so ":0" reports its chosen port (tests depend on
	// this line to find the server).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sys.Close()
		log.Printf("cbvr-server: %v", err)
		return 1
	}
	log.Printf("cbvr-server listening on %s (db %s)", ln.Addr(), *db)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		sys.Close()
		log.Printf("cbvr-server: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	log.Printf("cbvr-server: shutting down, draining for up to %s", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && errors.Is(err, context.DeadlineExceeded) {
		// Drain expired with requests still running: cancel their contexts
		// (ctx-aware engine loops stop within one decode iteration and
		// discard staged pages) and force-close the connections so blocked
		// body reads return.
		log.Printf("cbvr-server: drain timeout, aborting in-flight requests")
		api.Abort()
		httpSrv.Close()
	}
	// Handlers may still be unwinding their deferred cleanup (discarding
	// staged blob pages); the store refuses to close under active staged
	// writers, so wait for every handler to return first.
	api.Wait()
	if err := sys.Close(); err != nil {
		log.Printf("cbvr-server: close: %v", err)
		return 1
	}
	log.Printf("cbvr-server: clean shutdown")
	return 0
}
