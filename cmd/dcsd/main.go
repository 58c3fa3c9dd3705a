// Command dcsd serves density-contrast mining over HTTP: it keeps named,
// versioned graph snapshots in memory and answers DCS queries under all four
// contrast measures on a bounded worker pool. See package serve for the
// endpoint reference and README.md for curl examples.
//
// Usage:
//
//	dcsd [-addr :8080] [-pool 4] [-parallelism 0] [-maxpar 0] [-cache 64]
//	     [-timeout 0] [-maxqueue 0] [-jobs 256] [-watches 64] [-resync 0]
//	     [-data DIR] [-checkpoint 30s] [-memlimit 256MiB]
//	     [-load name=graph.tsv ...]
//
// -parallelism sets the default worker-goroutine degree inside each solve
// (requests may override it with their "parallelism" field) and -maxpar caps
// what a request may ask for: a request beyond the cap is clamped, and every
// response echoes the degree actually used.
//
// -data makes the server durable: snapshots (and their version counters)
// are mirrored to DIR write-through, streaming watches are checkpointed
// periodically (-checkpoint) and on SIGTERM/SIGINT, and a restart recovers
// everything — uploads, watch expectations, report rings — instead of
// booting empty. Restore counts are logged at boot and exposed on /healthz.
//
// With -data, snapshots are also served out-of-core: graphs are persisted in
// the mmap-friendly v2 binary layout, memory-mapped read-only on first use
// (the kernel page cache holds the adjacency, not the Go heap), and
// -memlimit bounds the total bytes of open snapshot mappings — the coldest
// unpinned ones are unmapped beyond it and re-mapped on demand, so a
// snapshot set far larger than RAM (or GOMEMLIMIT) serves correctly. The
// /healthz "memory" block reports mapped bytes, open/pinned counts and
// eviction counters.
//
// Each -load flag (repeatable) preloads an edge list as a named snapshot
// before the server starts; the format follows the file extension (.dcsg
// binary, .mtx/.mm MatrixMarket, .snap SNAP, anything else the native TSV —
// see internal/dataio), e.g.
//
//	dcsd -load old=dblp-g1.tsv -load new=dblp-g2.dcsg
//	curl 'localhost:8080/v1/topics?g1=old&g2=new&k=5'
//
// -timeout bounds each solve: an expired request returns its best-so-far
// partial result with "interrupted": true. Long solves are better submitted
// through the async job API (POST /v1/jobs, GET/DELETE /v1/jobs/{id}), whose
// retention is bounded by -jobs.
//
// -watches bounds the streaming anomaly watches (POST /v1/watches, the
// EWMA-expectation trackers of package evolve served over HTTP); 0 disables
// registration. Watches fed edge deltas mine incrementally, re-solving the
// full difference graph from scratch every -resync ticks (0 = the evolve
// default of 32; each watch may override at registration). See cmd/dcswatch
// for a client that drives a synthetic stream end-to-end.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/dcslib/dcs/internal/dataio"
	"github.com/dcslib/dcs/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcsd: ")
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 4, "max concurrent mining requests (further requests queue)")
	parallelism := flag.Int("parallelism", 0,
		"default worker goroutines per solve (0 = sequential, -1 = GOMAXPROCS)")
	maxPar := flag.Int("maxpar", 0,
		"cap on per-request parallelism (0 = GOMAXPROCS, -1 = disable parallel solves)")
	cache := flag.Int("cache", 64,
		"difference-graph LRU entries (0 disables caching)")
	timeout := flag.Duration("timeout", 0,
		"per-solve compute budget, e.g. 30s (0 = unlimited; expired solves return partial results)")
	maxQueue := flag.Int("maxqueue", 0,
		"max requests waiting for a worker slot / active jobs (0 = unlimited)")
	jobs := flag.Int("jobs", 256, "finished async jobs retained for polling")
	watches := flag.Int("watches", 64,
		"max registered streaming watches (0 disables registration)")
	resync := flag.Int("resync", 0,
		"default scratch re-solve interval for delta-fed watches (0 = evolve default, 1 = always scratch)")
	dataDir := flag.String("data", "",
		"data directory for durable snapshots and watches (empty = in-memory only)")
	checkpoint := flag.Duration("checkpoint", 30*time.Second,
		"watch-state checkpoint interval with -data (0 disables periodic checkpoints)")
	memLimit := flag.String("memlimit", "",
		"memory budget for open snapshot graphs with -data, e.g. 256MiB or 2GB "+
			"(empty/0 = unlimited; cold snapshots are unmapped LRU-first beyond it)")
	var loads []string
	flag.Func("load", "preload a snapshot as name=path.tsv (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		// '/' in a name would make the snapshot unreachable for
		// DELETE /v1/snapshots/{name} — a preload-only permanent leak.
		if strings.Contains(name, "/") {
			return fmt.Errorf("snapshot name %q must not contain '/'", name)
		}
		loads = append(loads, v)
		return nil
	})
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	par := *parallelism
	if par < 0 {
		par = runtime.GOMAXPROCS(0)
	}
	maxParallelism := *maxPar
	if maxParallelism < 0 {
		maxParallelism = -1 // Config convention: negative caps at 1
	}
	cacheSize := *cache
	if cacheSize <= 0 {
		cacheSize = -1 // Config convention: 0 means "default", negative disables
	}
	maxWatches := *watches
	if maxWatches <= 0 {
		maxWatches = -1 // same convention as -cache
	}
	cpInterval := *checkpoint
	if cpInterval <= 0 {
		cpInterval = -1 // Config convention: negative disables the loop
	}
	memBudget, err := parseBytes(*memLimit)
	if err != nil {
		log.Fatalf("-memlimit: %v", err)
	}
	if memBudget > 0 && *dataDir == "" {
		log.Fatal("-memlimit requires -data (in-memory snapshots cannot be unmapped)")
	}
	// No srv.Close() on the fatal paths: main only ever exits through
	// log.Fatal (which skips defers) and process death reclaims everything;
	// the signal handler below covers the graceful stop.
	cfg := serve.Config{
		PoolSize:           *pool,
		Parallelism:        par,
		MaxParallelism:     maxParallelism,
		DiffCacheSize:      cacheSize,
		SolveTimeout:       *timeout,
		MaxQueue:           *maxQueue,
		JobRetention:       *jobs,
		MaxWatches:         maxWatches,
		WatchResync:        *resync,
		CheckpointInterval: cpInterval,
		MemLimit:           memBudget,
	}
	var srv *serve.Server
	if *dataDir != "" {
		var err error
		srv, err = serve.Open(cfg, *dataDir)
		if err != nil {
			log.Fatal(err)
		}
		st := srv.PersistStats()
		log.Printf("recovered from %s: %d snapshots, %d watches (%d errors)",
			*dataDir, st.SnapshotsRestored, st.WatchesRestored, st.RestoreErrors)
	} else {
		srv = serve.New(cfg)
	}
	for _, l := range loads {
		name, path, _ := strings.Cut(l, "=")
		g, err := dataio.ReadGraphFileAuto(path)
		if err != nil {
			log.Fatalf("preload %s: %v", name, err)
		}
		info, err := srv.Store().Put(name, g)
		if err != nil {
			log.Fatalf("preload %s: %v", name, err)
		}
		log.Printf("loaded snapshot %q: n=%d m=%d (v%d)", info.Name, info.N, info.M, info.Version)
	}

	// A graceful stop (SIGTERM/SIGINT) first drains the listener — an
	// observe answered 200 during shutdown must make it into the final
	// flush — then checkpoints outstanding watch state. Snapshots need
	// nothing: they are mirrored write-through.
	httpSrv := newHTTPServer(*addr, srv, readHeaderTimeout)
	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		defer close(done)
		sig := <-sigc
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck // a drain timeout still flushes below
		srv.Flush()
		log.Printf("%s: watch state flushed, exiting", sig)
	}()

	log.Printf("listening on %s (pool=%d, parallelism=%d, maxpar=%d, timeout=%v, snapshots=%d)",
		*addr, *pool, par, *maxPar, *timeout, srv.Store().Len())
	err = httpSrv.ListenAndServe()
	if err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// readHeaderTimeout bounds how long a client may take to send its request
// line and headers, so slow-header (slowloris) clients cannot pin
// connections. It is deliberately not a read or idle timeout: large uploads
// and idle keep-alive connections are unaffected.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds dcsd's listener configuration around handler h.
func newHTTPServer(addr string, h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: headerTimeout}
}
