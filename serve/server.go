package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	dcs "github.com/dcslib/dcs"
)

// Config tunes a Server. The zero value is usable: a pool of 4 jobs and
// sequential solvers.
type Config struct {
	// PoolSize bounds how many mining requests compute at once; further
	// requests queue until a slot frees (or their context is cancelled).
	// Default 4.
	PoolSize int
	// Parallelism is the default worker-goroutine degree per solve, used when
	// a request does not ask for one. 0 means sequential; results are
	// identical either way.
	Parallelism int
	// MaxParallelism caps the per-request "parallelism" field (and the
	// default above): a request asking for more is clamped to this value and
	// the response echoes the degree actually used. 0 means GOMAXPROCS;
	// negative means 1 (parallel solves disabled).
	MaxParallelism int
	// QueueTimeout bounds how long a request may wait for a pool slot before
	// being rejected with 503. Default 30s.
	QueueTimeout time.Duration
	// MaxBodyBytes caps request body size (413 beyond it). Default 32 MiB.
	MaxBodyBytes int64
	// MaxVertices caps the vertex count of uploaded and inline graphs, so a
	// tiny request cannot demand O(n) allocations for an astronomical n.
	// Operator-preloaded snapshots are not subject to it. Default 2,000,000.
	MaxVertices int
	// DiffCacheSize bounds the difference-graph LRU: built GD = G2 − αG1
	// graphs are cached per (snapshot1, snapshot2, alpha) so repeated /v1/dcs
	// and /v1/topics calls against the same snapshot pair skip the O(m1+m2+n)
	// rebuild. Replacing a snapshot bumps its version and thereby invalidates
	// its cached differences. Default 64 entries; negative disables caching.
	DiffCacheSize int
	// SolveTimeout bounds how long one mining request may compute once it
	// holds a pool slot (queueing time does not count). An expired solve is
	// interrupted at its next cancellation checkpoint and returns its
	// best-so-far partial result with "interrupted": true. 0 means unlimited.
	// Client disconnects and job cancellations interrupt solves the same way
	// regardless of this setting.
	SolveTimeout time.Duration
	// MaxQueue bounds the overload backlog: how many synchronous requests may
	// wait for a pool slot (beyond it they are rejected with 503 immediately
	// instead of queueing until QueueTimeout), and likewise how many async
	// jobs may be queued or running at once. 0 means unlimited.
	MaxQueue int
	// JobRetention bounds how many *finished* async jobs are kept for
	// polling; beyond it the oldest finished jobs are evicted (a GET for an
	// evicted id returns 404). Queued and running jobs are never evicted.
	// Default 256.
	JobRetention int
	// MaxWatches bounds how many streaming watches may be registered at
	// once; a POST /v1/watches beyond it is rejected with 503 until one is
	// deleted. Each watch pins two O(m) graphs (expectation and last
	// observation). 0 means the default 64; negative disables registration.
	MaxWatches int
	// WatchReports is the default per-watch report-ring capacity; each
	// watch may override it at registration (capped at 4096). Default 32.
	WatchReports int
	// WatchResync is the default scratch re-solve interval for delta-fed
	// watches: every K-th delta tick mines the full difference graph from
	// scratch instead of incrementally. Each watch may override it at
	// registration. 0 means the evolve package default (32); 1 disables
	// incremental mining outright.
	WatchResync int
	// MemLimit bounds, in bytes, how much memory a durable server (Open)
	// spends on open snapshot graphs: snapshots are persisted in the
	// mmap-friendly v2 binary layout, opened lazily, and the coldest
	// unpinned mappings are unmapped once the sum of open-handle bytes
	// exceeds this budget (they re-map on demand). Graphs pinned by a
	// running solve are never unmapped, so the budget may be exceeded
	// transiently while pins drain. 0 means unlimited (snapshots are still
	// served lazily from their mappings — the kernel page cache, not the Go
	// heap, holds the adjacency). Ignored by New, whose snapshots are
	// resident heap graphs.
	MemLimit int64
	// CheckpointInterval is how often a persistent server (see Open) writes
	// watch-state checkpoints for watches observed since their last one.
	// Snapshots are mirrored write-through and do not wait for it. Default
	// 30s; negative disables the periodic loop (Flush/Close still
	// checkpoint). Ignored by New.
	CheckpointInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 4
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxParallelism < 1 {
		c.MaxParallelism = 1
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 2_000_000
	}
	if c.DiffCacheSize == 0 {
		c.DiffCacheSize = 64
	}
	if c.JobRetention == 0 {
		c.JobRetention = 256
	}
	if c.MaxWatches == 0 {
		c.MaxWatches = 64
	}
	if c.WatchReports < 1 {
		c.WatchReports = 32
	}
	if c.WatchReports > maxWatchReports {
		c.WatchReports = maxWatchReports
	}
	if c.WatchResync < 0 {
		c.WatchResync = 0 // fall back to the evolve default
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	return c
}

// Server is the dcsd HTTP service; it implements http.Handler. Construct
// with New, preload snapshots through Store, and hand it to http.Serve.
type Server struct {
	cfg     Config
	store   *Store
	pool    *workerPool
	dcache  *diffCache
	jobs    *jobRegistry
	watches *watchRegistry
	mux     *http.ServeMux
	start   time.Time

	// persist is nil on an in-memory Server (New); Open sets it and starts
	// the checkpoint loop.
	persist *persister
	cpStop  chan struct{}
	cpDone  chan struct{}
	cpOnce  sync.Once

	// mem is the snapshot memory budget (nil on an in-memory Server): the
	// byte-accounted LRU of open snapshot mappings, shared with the store.
	mem *memoryManager
}

// New returns a ready Server with an empty snapshot registry.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		store: NewStore(),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.dcache = newDiffCache(max(s.cfg.DiffCacheSize, 0))
	// Replacing a snapshot (through any path) purges its cached differences.
	s.store.onReplace = s.dcache.purgeName
	s.pool = newWorkerPool(s.cfg.PoolSize, s.cfg.MaxQueue)
	s.jobs = newJobRegistry(s.cfg.JobRetention)
	s.watches = newWatchRegistry()
	s.mux.HandleFunc("/v1/snapshots", s.handleSnapshots)
	s.mux.HandleFunc("/v1/snapshots/", s.handleSnapshotByName)
	s.mux.HandleFunc("/v1/dcs", s.handleDCS)
	s.mux.HandleFunc("/v1/topics", s.handleTopics)
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/v1/watches", s.handleWatches)
	s.mux.HandleFunc("/v1/watches/", s.handleWatchByPath)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Open returns a Server whose state is durable under dataDir: on boot it
// recovers every committed snapshot (last fully-committed version, binary
// checksums verified) and every checkpointed streaming watch (EWMA
// expectation, delta base, report ring — the next observe mines against
// the restored expectation, not a cold tracker), then mirrors every
// snapshot Put/Delete write-through and checkpoints watch state every
// Config.CheckpointInterval plus on Flush/Close. Version counters survive
// restarts, deletions included, preserving the diff cache's (name, version)
// ABA protection. Restore counts are on /healthz (see PersistStats).
func Open(cfg Config, dataDir string) (*Server, error) {
	s := New(cfg)
	p, err := openPersister(dataDir)
	if err != nil {
		return nil, err
	}
	// The memory budget attaches before recovery so recovered snapshots are
	// registered lazily (checksum-verified, mapped on first use) instead of
	// loaded — boot cost is O(metadata), not O(graph bytes).
	s.mem = newMemoryManager(s.cfg.MemLimit)
	s.store.mem = s.mem
	p.recoverSnapshots(s.store)
	for _, w := range p.recoverWatches(*s.defaultOptions()) {
		s.watches.restore(w)
	}
	// Hooks attach only after recovery: restoring must not rewrite what it
	// just read.
	s.persist = p
	s.store.persist = p
	p.lookup = func(name string) (*watch, bool) { return s.watches.get(name) }
	s.cpStop = make(chan struct{})
	s.cpDone = make(chan struct{})
	go s.checkpointLoop()
	return s, nil
}

func (s *Server) checkpointLoop() {
	defer close(s.cpDone)
	if s.cfg.CheckpointInterval < 0 {
		<-s.cpStop
		return
	}
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.persist.flush()
		case <-s.cpStop:
			return
		}
	}
}

// Flush checkpoints the state of every watch observed since its last
// checkpoint. Snapshots are mirrored write-through and need no flushing.
// It is a no-op on an in-memory Server; dcsd calls it on SIGTERM so a
// graceful stop loses no watch progress.
func (s *Server) Flush() {
	if s.persist != nil {
		s.persist.flush()
	}
}

// Store exposes the snapshot registry, e.g. for preloading at startup.
func (s *Server) Store() *Store { return s.store }

// PersistStats reports the persistence counters (restored snapshot/watch
// counts, write and restore errors); Enabled is false on an in-memory
// Server. The same numbers are served on /healthz.
func (s *Server) PersistStats() PersistStats {
	if s.persist == nil {
		return PersistStats{}
	}
	return s.persist.statsSnapshot()
}

// MemoryStats reports the snapshot memory budget's counters (mapped bytes,
// open/pinned snapshots, evictions) plus the runtime's in-use heap; Enabled
// is false on an in-memory Server. The same numbers are served on /healthz.
func (s *Server) MemoryStats() MemoryStats {
	var st MemoryStats
	if s.mem != nil {
		st = s.mem.stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.HeapInUseBytes = ms.HeapInuse
	return st
}

// Close shuts the mining machinery down: requests waiting for a pool slot
// are rejected with 503, and every queued or running async job is cancelled
// (running solvers stop at their next checkpoint and record a cancelled
// status with their partial result). On a persistent Server the checkpoint
// loop is stopped and outstanding watch state is flushed. The snapshot
// store and read-only endpoints keep working; Close is idempotent.
func (s *Server) Close() {
	s.pool.close()
	s.jobs.cancelAll()
	if s.persist != nil {
		s.cpOnce.Do(func() { close(s.cpStop) })
		<-s.cpDone
		s.persist.flush()
	}
	if s.mem != nil {
		// Unmap every unpinned snapshot; mappings pinned by still-draining
		// jobs close when their last pin releases.
		s.mem.closeAll()
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// effectiveParallelism resolves a request's worker degree: 0 (absent) means
// the server default, and the result is clamped to [1, Config.MaxParallelism]
// — a request beyond the cap is served at the cap, with the response echoing
// the degree actually used rather than silently reporting zero.
func (s *Server) effectiveParallelism(requested int) int {
	p := requested
	if p == 0 {
		p = s.cfg.Parallelism
	}
	if p > s.cfg.MaxParallelism {
		p = s.cfg.MaxParallelism
	}
	if p < 1 {
		p = 1
	}
	return p
}

func (s *Server) options(parallelism int) *dcs.Options {
	return &dcs.Options{Parallelism: parallelism}
}

// defaultOptions are the solver options for paths without a per-request
// degree (watch evaluation, /v1/topics): the server default, clamped.
func (s *Server) defaultOptions() *dcs.Options {
	return s.options(s.effectiveParallelism(0))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // headers are gone; nothing to recover
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// httpError tags an error with the status code the handler should emit.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeHTTPError(w http.ResponseWriter, err error) {
	if he, ok := err.(*httpError); ok {
		writeError(w, he.status, "%s", he.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, "%s", err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	persist := s.PersistStats()
	status := "ok"
	if persist.RestoreErrors > 0 || persist.WriteErrors > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      status,
		Snapshots:   s.store.Len(),
		InFlight:    s.pool.InFlight(),
		Waiting:     s.pool.Waiting(),
		UptimeSec:   time.Since(s.start).Seconds(),
		DiffCache:   s.dcache.stats(),
		Jobs:        s.jobs.stats(),
		Watches:     s.watches.stats(),
		Persistence: persist,
		Memory:      s.MemoryStats(),
	})
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.store.List())
	case http.MethodPost:
		var req SnapshotRequest
		if err := s.decodeBody(w, r, &req); err != nil {
			writeHTTPError(w, err)
			return
		}
		if req.Name == "" {
			writeError(w, http.StatusBadRequest, "snapshot name is required")
			return
		}
		// '/' would make the name unreachable for DELETE /v1/snapshots/{name}
		// — an undeletable snapshot is a permanent leak.
		if strings.Contains(req.Name, "/") {
			writeError(w, http.StatusBadRequest, "snapshot name must not contain '/'")
			return
		}
		if req.GraphJSON.N > s.cfg.MaxVertices {
			writeError(w, http.StatusBadRequest, "vertex count %d exceeds the server limit %d", req.GraphJSON.N, s.cfg.MaxVertices)
			return
		}
		g, err := req.GraphJSON.Build()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad graph: %s", err)
			return
		}
		info, err := s.store.Put(req.Name, g)
		if err != nil {
			// The in-memory registry has the new version, but the durable
			// mirror does not: a 200 would promise a durability the disk
			// refused, so fail loudly and let the client retry.
			writeError(w, http.StatusInternalServerError,
				"snapshot %q v%d stored in memory but failed to persist: %s", info.Name, info.Version, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleSnapshotByName serves DELETE /v1/snapshots/{name}: without it a
// long-running dcsd leaks every graph ever registered. Deleting also purges
// the name's cached difference graphs through the store's replace hook.
func (s *Server) handleSnapshotByName(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/snapshots/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
		return
	}
	if r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "use DELETE")
		return
	}
	ok, err := s.store.Delete(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown snapshot %q", name)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			"snapshot %q deleted in memory but the deletion failed to persist: %s", name, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// resolve turns one side of a request (snapshot name or inline graph) into a
// graph plus the reference echoed in the response. The release func pins the
// snapshot's mapping (out-of-core stores) until the caller is done reading
// the graph; it is a no-op for inline and resident graphs. Call it exactly
// once; resolve never returns a nil release alongside a nil error.
func (s *Server) resolve(side, name string, inline *GraphJSON) (*dcs.Graph, func(), SnapshotRef, error) {
	switch {
	case name != "" && inline != nil:
		return nil, nil, SnapshotRef{}, badRequest("%s: give a snapshot name or an inline graph, not both", side)
	case name != "":
		snap, ok := s.store.Get(name)
		if !ok {
			return nil, nil, SnapshotRef{}, badRequest("%s: unknown snapshot %q", side, name)
		}
		g, release, err := snap.Acquire()
		if errors.Is(err, errSnapshotGone) {
			// A delete (or replace) landed between Get and Acquire; to the
			// client that ordering is simply "the snapshot was gone".
			return nil, nil, SnapshotRef{}, badRequest("%s: unknown snapshot %q", side, name)
		}
		if err != nil {
			return nil, nil, SnapshotRef{}, err
		}
		return g, release, SnapshotRef{Name: snap.Name, Version: snap.Version}, nil
	case inline != nil:
		if inline.N > s.cfg.MaxVertices {
			return nil, nil, SnapshotRef{}, badRequest("%s: vertex count %d exceeds the server limit %d", side, inline.N, s.cfg.MaxVertices)
		}
		g, err := inline.Build()
		if err != nil {
			return nil, nil, SnapshotRef{}, badRequest("%s: bad inline graph: %s", side, err)
		}
		return g, func() {}, SnapshotRef{Inline: true}, nil
	default:
		return nil, nil, SnapshotRef{}, badRequest("%s: missing (name a snapshot or inline a graph)", side)
	}
}

// resolvePair resolves both sides and checks they share a vertex set. The
// single release func unpins both sides; the caller must invoke it exactly
// once, after the last read of either graph (for async jobs: when the job
// finishes, not when the submit handler returns).
func (s *Server) resolvePair(req *DCSRequest) (g1, g2 *dcs.Graph, release func(), r1, r2 SnapshotRef, err error) {
	g1, rel1, r1, err := s.resolve("g1", req.G1, req.Graph1)
	if err != nil {
		return nil, nil, nil, SnapshotRef{}, SnapshotRef{}, err
	}
	g2, rel2, r2, err := s.resolve("g2", req.G2, req.Graph2)
	if err != nil {
		rel1()
		return nil, nil, nil, SnapshotRef{}, SnapshotRef{}, err
	}
	if g1.N() != g2.N() {
		rel1()
		rel2()
		return nil, nil, nil, SnapshotRef{}, SnapshotRef{},
			badRequest("vertex counts differ: g1 has %d, g2 has %d", g1.N(), g2.N())
	}
	return g1, g2, func() { rel1(); rel2() }, r1, r2, nil
}

// decodeBody decodes a JSON request body, bounded by MaxBodyBytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, out any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(out); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds the server limit %d bytes", tooLarge.Limit)}
		}
		return badRequest("bad JSON: %s", err)
	}
	return nil
}

// admit reserves a pool slot for the request, bounded by QueueTimeout.
// The caller must invoke the returned release func when done.
func (s *Server) admit(r *http.Request) (func(), error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueueTimeout)
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		msg := "server busy: no worker slot within queue timeout"
		switch {
		case errors.Is(err, errQueueFull):
			msg = "server busy: worker queue full"
		case errors.Is(err, errPoolClosed):
			msg = "server shutting down"
		}
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: msg}
	}
	return s.pool.release, nil
}

// solveCtx derives the context one admitted solve runs under: the request's
// own context (so a client disconnect interrupts the solver and frees the
// slot) bounded by SolveTimeout when configured.
func (s *Server) solveCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.SolveTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.SolveTimeout)
	}
	return r.Context(), func() {}
}

// weightsOf extracts the simplex weights aligned with S. The embedding type
// lives in an internal package, so it is taken structurally.
func weightsOf(x interface{ Get(u int) float64 }, S []int) []float64 {
	if x == nil {
		return nil
	}
	out := make([]float64, len(S))
	for i, v := range S {
		out[i] = x.Get(v)
	}
	return out
}

// validateDCSRequest checks the measure/k/alpha fields shared by the
// synchronous /v1/dcs handler and the async job submit.
func validateDCSRequest(req *DCSRequest) error {
	switch req.Measure {
	case "avgdeg", "affinity", "totalweight", "ratio":
	case "":
		return badRequest("measure is required: avgdeg | affinity | totalweight | ratio")
	default:
		return badRequest("unknown measure %q: want avgdeg | affinity | totalweight | ratio", req.Measure)
	}
	if req.K < 0 {
		return badRequest("k must be non-negative")
	}
	// Alpha is a pointer so that an explicit 0 (mine GD = G2, no G1
	// subtraction) is distinguishable from "absent, default to 1".
	if a := req.Alpha; a != nil && (*a < 0 || math.IsNaN(*a) || math.IsInf(*a, 0)) {
		return badRequest("alpha must be a non-negative finite number")
	}
	if req.Parallelism < 0 {
		return badRequest("parallelism must be non-negative (0 means the server default)")
	}
	return nil
}

// effectiveAlpha resolves the request's α: absent means 1, an explicit value
// — including 0 — is honored.
func effectiveAlpha(req *DCSRequest) float64 {
	if req.Alpha != nil {
		return *req.Alpha
	}
	return 1
}

// solve runs one validated mining request against its resolved graphs under
// ctx. The caller must already hold a pool slot. When ctx is cancelled — the
// client disconnected, the SolveTimeout expired or a job was cancelled — the
// solver in flight stops at its next checkpoint and the response carries the
// best-so-far partial result with Interrupted set.
func (s *Server) solve(ctx context.Context, req *DCSRequest, g1, g2 *dcs.Graph, r1, r2 SnapshotRef) (*DCSResponse, error) {
	alpha := effectiveAlpha(req)
	k := req.K
	if k == 0 {
		k = 1
	}
	// Clamp-and-echo: the effective degree is reported even for measures the
	// engine runs sequentially (totalweight — EgoScan's seed dedup is
	// order-dependent), so a client always learns what its request resolved
	// to.
	par := s.effectiveParallelism(req.Parallelism)
	started := time.Now()
	resp := &DCSResponse{Measure: req.Measure, G1: r1, G2: r2, Alpha: alpha, Parallelism: par}

	switch req.Measure {
	case "ratio":
		resp.Alpha = 0 // output field Alpha is input-only here; Ratio carries the answer
		res := dcs.FindMaxRatioContrastParCtx(ctx, g1, g2, par)
		resp.Interrupted = res.Interrupted
		rj := &RatioJSON{S: res.S, Density1: res.Density1, Density2: res.Density2}
		if math.IsInf(res.Alpha, 1) {
			rj.Unbounded = true
		} else {
			rj.Alpha = res.Alpha
		}
		resp.Ratio = rj
	case "avgdeg":
		gd := s.differenceGraph(g1, g2, r1, r2, alpha)
		results, interrupted := dcs.TopKAverageDegreeDCSOnParCtx(ctx, gd, k, par)
		resp.Interrupted = interrupted
		for _, res := range results {
			if err := dcs.ValidateAverageDegreeResult(gd, res); err != nil {
				return nil, fmt.Errorf("result failed validation: %s", err)
			}
			resp.Results = append(resp.Results, SubgraphJSON{
				S:              res.S,
				Density:        res.Density,
				TotalWeight:    res.TotalWeight,
				EdgeDensity:    res.EdgeDensity,
				ApproxRatio:    res.Ratio,
				PositiveClique: res.PositiveClique,
				Connected:      res.Connected,
			})
		}
	case "affinity":
		gd := s.differenceGraph(g1, g2, r1, r2, alpha)
		if k == 1 {
			res := dcs.FindGraphAffinityDCSOnCtx(ctx, gd, s.options(par))
			resp.Interrupted = res.Interrupted
			if err := dcs.ValidateGraphAffinityResult(gd, res); err != nil {
				return nil, fmt.Errorf("result failed validation: %s", err)
			}
			resp.Results = append(resp.Results, gaSubgraph(gd, res.S, res.Affinity, weightsOf(res.X, res.S)))
		} else {
			cliques, interrupted := dcs.TopKGraphAffinityDCSOnCtx(ctx, gd, k, s.options(par))
			resp.Interrupted = interrupted
			for _, c := range cliques {
				resp.Results = append(resp.Results, gaSubgraph(gd, c.S, c.Affinity, weightsOf(c.X, c.S)))
			}
		}
	case "totalweight":
		gd := s.differenceGraph(g1, g2, r1, r2, alpha)
		res := dcs.FindMaxTotalWeightSubgraphOnCtx(ctx, gd)
		resp.Interrupted = res.Interrupted
		resp.Results = append(resp.Results, SubgraphJSON{
			S:              res.S,
			Density:        res.Density,
			TotalWeight:    res.TotalWeight,
			EdgeDensity:    res.EdgeDensity,
			PositiveClique: res.PositiveClique,
			Connected:      gd.IsConnected(res.S),
		})
	}
	resp.ElapsedMS = float64(time.Since(started)) / float64(time.Millisecond)
	return resp, nil
}

func (s *Server) handleDCS(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req DCSRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeHTTPError(w, err)
		return
	}
	if err := validateDCSRequest(&req); err != nil {
		writeHTTPError(w, err)
		return
	}
	g1, g2, unpin, r1, r2, err := s.resolvePair(&req)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	defer unpin()
	release, err := s.admit(r)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	defer release()

	ctx, cancel := s.solveCtx(r)
	defer cancel()
	resp, err := s.solve(ctx, &req, g1, g2, r1, r2)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTopics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	name1, name2 := q.Get("g1"), q.Get("g2")
	if name1 == "" || name2 == "" {
		writeError(w, http.StatusBadRequest, "g1 and g2 query parameters are required")
		return
	}
	k := 5
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
		k = v
	}
	direction := q.Get("direction")
	if direction == "" {
		direction = "emerging"
	}
	if direction != "emerging" && direction != "disappearing" {
		writeError(w, http.StatusBadRequest, "direction must be emerging or disappearing")
		return
	}
	req := DCSRequest{G1: name1, G2: name2}
	g1, g2, unpin, r1, r2, err := s.resolvePair(&req)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	defer unpin()
	release, err := s.admit(r)
	if err != nil {
		writeHTTPError(w, err)
		return
	}
	defer release()

	ctx, cancel := s.solveCtx(r)
	defer cancel()
	started := time.Now()
	// Emerging topics are denser in g2; disappearing ones denser in g1. The
	// two directions cache under distinct (ordered) keys; only the requested
	// one is built.
	var gd *dcs.Graph
	if direction == "disappearing" {
		gd = s.differenceGraph(g2, g1, r2, r1, 1)
	} else {
		gd = s.differenceGraph(g1, g2, r1, r2, 1)
	}
	cliques, interrupted := dcs.TopContrastCliquesOnCtx(ctx, gd, s.defaultOptions())
	resp := TopicsResponse{G1: r1, G2: r2, Direction: direction, Interrupted: interrupted}
	for i, c := range cliques {
		if i >= k {
			break
		}
		resp.Topics = append(resp.Topics, gaSubgraph(gd, c.S, c.Affinity, weightsOf(c.X, c.S)))
	}
	resp.ElapsedMS = float64(time.Since(started)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// gaSubgraph assembles the response record for an affinity-measure subgraph,
// re-deriving the secondary metrics from the difference graph in one walk.
func gaSubgraph(gd *dcs.Graph, S []int, affinity float64, weights []float64) SubgraphJSON {
	w, density, edgeDensity := gd.SubgraphMetrics(S)
	return SubgraphJSON{
		S:              S,
		Density:        density,
		TotalWeight:    w,
		EdgeDensity:    edgeDensity,
		Affinity:       affinity,
		Weights:        weights,
		PositiveClique: gd.IsPositiveClique(S),
		Connected:      gd.IsConnected(S),
	}
}
