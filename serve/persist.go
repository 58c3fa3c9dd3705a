package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/evolve"
)

// This file is the durability layer behind serve.Open: a dcsd with a data
// directory restarts warm instead of forgetting every snapshot, version
// counter and streaming watch it held in memory.
//
// Layout under the data directory:
//
//	snapshots/<key>.json          one manifest per snapshot name: name,
//	                              version, UpdatedAt, graph file — or a
//	                              tombstone (deleted, version retained)
//	snapshots/<key>.v<V>.dcsg     the version-V graph, binary CSR codec
//	watches/<key>.json            one manifest per watch: config, step,
//	                              counters, report ring, graph files
//	watches/<key>.v<S>.expect.dcsg  checkpointed EWMA expectation
//	watches/<key>.v<S>.last.dcsg    checkpointed delta base (last observation)
//
// <key> is url.PathEscape of the name: injective, never contains a path
// separator, and only ever embedded inside longer file names so "." and
// ".." cannot arise.
//
// Crash safety: every file is written to a temp name, fsynced and renamed
// into place; a snapshot's graph file commits before the manifest that
// references it, and old files are deleted only after the new manifest is
// durable. A kill -9 at any point therefore leaves either the old or the
// new fully-committed state: recovery reads the manifests, verifies each
// graph's checksum (binary codec), seeds the store's monotonic version
// counters (tombstones included — the diff-cache ABA protection survives
// restart), and removes whatever orphaned temp/graph files the crash left.
//
// Snapshots are mirrored write-through (each Store.Put/Delete lands on disk
// before the call returns). Watch state is checkpointed: immediately on
// registration and deletion, and periodically (Config.CheckpointInterval)
// plus on Flush/Close for observation progress — an fsync per stream tick
// would gate mining throughput on the disk.

type snapManifest struct {
	Name      string    `json:"name"`
	Version   int       `json:"version"`
	UpdatedAt time.Time `json:"updated_at"`
	// File is the graph file's base name within snapshots/.
	File string `json:"file,omitempty"`
	// Meta caches the graph's headline numbers so boot can register the
	// snapshot lazily — checksum-verify the file, serve Info from here, and
	// only map the graph when a request first touches it. Absent on
	// manifests written before the out-of-core store; those recover eagerly.
	Meta *snapMeta `json:"meta,omitempty"`
	// Deleted marks a tombstone: the name is gone but its version counter
	// must survive restarts.
	Deleted bool `json:"deleted,omitempty"`
}

// snapMeta is the snapshot metadata mirrored into the manifest.
type snapMeta struct {
	N           int     `json:"n"`
	M           int     `json:"m"`
	TotalWeight float64 `json:"total_weight"`
}

type watchManifest struct {
	Name           string        `json:"name"`
	N              int           `json:"n"`
	Lambda         float64       `json:"lambda"`
	Measure        string        `json:"measure"`
	MinDensity     float64       `json:"min_density"`
	SolveTimeoutMS float64       `json:"solve_timeout_ms,omitempty"`
	ReportCap      int           `json:"report_cap"`
	ResyncEvery    int           `json:"resync_every,omitempty"`
	CreatedAt      time.Time     `json:"created_at"`
	Step           int           `json:"step"`
	Anomalies      int           `json:"anomalies"`
	LastSeen       *time.Time    `json:"last_seen,omitempty"`
	Reports        []WatchReport `json:"reports,omitempty"`
	// Seq is the checkpoint sequence number embedded in the graph file
	// names, so a new checkpoint never overwrites the files the previous
	// manifest still references.
	Seq        int    `json:"seq"`
	ExpectFile string `json:"expect_file"`
	LastFile   string `json:"last_file"`
}

// persister owns the data directory. All disk mutations serialize on mu —
// correctness of the commit ordering above depends on it; the stat counters
// live under their own lock so /healthz never waits on disk I/O.
type persister struct {
	snapDir  string
	watchDir string

	mu sync.Mutex
	// lastSaved is the newest version durably recorded per snapshot name
	// (tombstones included). Writes carrying an older version are stale
	// deliveries from concurrent Puts and are discarded. guarded by mu.
	lastSaved map[string]int
	// dirty holds watches with observations newer than their last
	// checkpoint, under its own small lock: markDirty sits on the observe
	// hot path and must never wait behind a checkpoint's fsyncs on mu.
	// Lock order is mu → dirtyMu → the registry's lock (via lookup).
	dirtyMu sync.Mutex
	dirty   map[string]*watch // guarded by dirtyMu
	// lookup resolves a name to the registry's CURRENT watch. Checked
	// before any checkpoint write, dirty-mark or file removal, so neither a
	// flush of a deleted watch nor the deletion of a name that a new
	// same-named watch has since claimed can touch the current owner's
	// state.
	lookup func(name string) (*watch, bool)

	statMu sync.Mutex
	stats  PersistStats // guarded by statMu
}

func openPersister(dir string) (*persister, error) {
	p := &persister{
		snapDir:   filepath.Join(dir, "snapshots"),
		watchDir:  filepath.Join(dir, "watches"),
		lastSaved: make(map[string]int),
		dirty:     make(map[string]*watch),
	}
	for _, d := range []string{p.snapDir, p.watchDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data directory: %w", err)
		}
	}
	p.stats.Enabled = true
	return p, nil
}

// fsKey maps a snapshot or watch name to a filename-safe, injective key.
func fsKey(name string) string { return url.PathEscape(name) }

// writeAtomic writes content to path via temp file + fsync + rename, the
// all-or-nothing primitive everything here builds on. Callers hold p.mu.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename itself lives in the directory: without fsyncing it, a
	// power loss could forget the entry even though the file's own Sync
	// succeeded, and the "durable once the call returns" promise would only
	// cover process crashes.
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making renames within it power-loss durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func writeJSONFile(path string, v any) error {
	return writeAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	})
}

// countWrite bumps the counter kind selects (WriteErrors instead when err is
// non-nil). kind runs under statMu, so callers never reach into stats
// without the lock.
func (p *persister) countWrite(kind func(*PersistStats) *int, err error) {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	if err != nil {
		p.stats.WriteErrors++
		return
	}
	*kind(&p.stats)++
}

func snapshotWrites(s *PersistStats) *int   { return &s.SnapshotWrites }
func watchCheckpoints(s *PersistStats) *int { return &s.WatchCheckpoints }

// saveSnapshot implements persistHook: graph file first, then the manifest
// referencing it, then removal of the replaced graph file. The graph is
// written in the v2 (mmap-friendly, uncompressed) binary layout so the store
// can demote the snapshot and serve it from the mapping; the committed
// file's path is returned for that registration ("" on a stale delivery).
// Removing the replaced version's file is safe even while a solve still
// reads its mapping — an unlinked mapping survives until unmapped.
func (p *persister) saveSnapshot(s *Snapshot, g *dcs.Graph) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastSaved[s.Name] >= s.Version {
		return "", nil // stale delivery; a newer version is already durable
	}
	key := fsKey(s.Name)
	gfile := key + ".v" + strconv.Itoa(s.Version) + ".dcsg"
	gpath := filepath.Join(p.snapDir, gfile)
	err := writeAtomic(gpath, func(w io.Writer) error {
		return dcs.WriteGraphBinaryV2(w, g, false)
	})
	if err == nil {
		old := p.readManifest(key)
		err = writeJSONFile(filepath.Join(p.snapDir, key+".json"), snapManifest{
			Name: s.Name, Version: s.Version, UpdatedAt: s.UpdatedAt, File: gfile,
			Meta: &snapMeta{N: g.N(), M: g.M(), TotalWeight: g.TotalWeight()},
		})
		if err == nil {
			p.lastSaved[s.Name] = s.Version
			if old != nil && old.File != "" && old.File != gfile {
				os.Remove(filepath.Join(p.snapDir, old.File))
			}
		}
	}
	p.countWrite(snapshotWrites, err)
	if err != nil {
		return "", err
	}
	return gpath, nil
}

// deleteSnapshot implements persistHook: replace the manifest with a
// tombstone retaining the version counter, then drop the graph file.
func (p *persister) deleteSnapshot(name string, lastVersion int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Stale-delivery guard, the mirror of saveSnapshot's: hooks run outside
	// the store lock, so a delete can reach the disk after the save of a
	// later re-creation. lastVersion is the counter this delete observed at
	// its commit; if something newer is already durable, tombstoning it
	// would destroy a live snapshot and regress the version counter.
	if p.lastSaved[name] > lastVersion {
		return nil
	}
	key := fsKey(name)
	old := p.readManifest(key)
	err := writeJSONFile(filepath.Join(p.snapDir, key+".json"), snapManifest{
		Name: name, Version: lastVersion, UpdatedAt: time.Now(), Deleted: true,
	})
	if err == nil {
		if p.lastSaved[name] < lastVersion {
			p.lastSaved[name] = lastVersion
		}
		if old != nil && old.File != "" {
			os.Remove(filepath.Join(p.snapDir, old.File))
		}
	}
	p.countWrite(snapshotWrites, err)
	return err
}

// readManifest loads a snapshot manifest by key, nil when absent/corrupt.
// Callers hold p.mu.
func (p *persister) readManifest(key string) *snapManifest {
	data, err := os.ReadFile(filepath.Join(p.snapDir, key+".json"))
	if err != nil {
		return nil
	}
	var m snapManifest
	if json.Unmarshal(data, &m) != nil {
		return nil
	}
	return &m
}

// recoverSnapshots loads every committed snapshot into the store, seeds
// version counters from manifests and tombstones, and sweeps files no
// manifest references (the debris of a crash mid-commit).
func (p *persister) recoverSnapshots(store *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries, err := os.ReadDir(p.snapDir)
	if err != nil {
		p.noteRestoreError()
		return
	}
	keep := map[string]bool{}
	var keepPrefixes []string
	var manifests []snapManifest
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(p.snapDir, name))
		if err != nil {
			p.noteRestoreError()
			keep[name] = true
			keepPrefixes = append(keepPrefixes, strings.TrimSuffix(name, ".json")+".v")
			continue
		}
		var m snapManifest
		if err := json.Unmarshal(data, &m); err != nil || m.Name == "" {
			// Unreadable manifest: count it, keep the file for diagnosis —
			// and spare every file of its key (<key>.v*), since we can no
			// longer tell which of them the manifest references. Deleting
			// them would turn a corrupt ~200-byte JSON into permanent loss
			// of an intact, checksummed graph.
			p.noteRestoreError()
			keep[name] = true
			keepPrefixes = append(keepPrefixes, strings.TrimSuffix(name, ".json")+".v")
			continue
		}
		keep[name] = true
		if !m.Deleted && m.File != "" {
			keep[m.File] = true
		}
		manifests = append(manifests, m)
	}
	for _, m := range manifests {
		if p.lastSaved[m.Name] < m.Version {
			p.lastSaved[m.Name] = m.Version
		}
		store.SeedVersion(m.Name, m.Version)
		if m.Deleted {
			continue
		}
		gpath := filepath.Join(p.snapDir, m.File)
		if m.Meta != nil && store.mem != nil {
			// Lazy restore: one streaming checksum pass over the file, no
			// graph build — boot stays O(metadata) no matter how much graph
			// data the directory holds. (Structural invariants are verified
			// when the file is first mapped; a file that passes the checksum
			// but fails them errors at first use, not at boot.)
			if err := dcs.VerifyGraphFile(gpath); err != nil {
				p.noteRestoreError()
				continue
			}
			store.mem.register(snapID{m.Name, m.Version}, gpath)
			store.Restore(newLazySnapshot(m.Name, m.Version, m.UpdatedAt,
				m.Meta.N, m.Meta.M, m.Meta.TotalWeight, store.mem))
			p.statMu.Lock()
			p.stats.SnapshotsRestored++
			p.statMu.Unlock()
			continue
		}
		// Pre-metadata manifest: recover eagerly, as before the out-of-core
		// store. The snapshot stays resident until its next Put.
		g, err := readGraphFileBinary(gpath)
		if err != nil {
			// The commit ordering makes this unreachable for crashes; it
			// means on-disk corruption after the fact. Boot degraded rather
			// than not at all.
			p.noteRestoreError()
			continue
		}
		store.Restore(newSnapshot(m.Name, m.Version, g, m.UpdatedAt))
		p.statMu.Lock()
		p.stats.SnapshotsRestored++
		p.statMu.Unlock()
	}
	for _, e := range entries {
		if !keep[e.Name()] && !hasAnyPrefix(e.Name(), keepPrefixes) {
			os.Remove(filepath.Join(p.snapDir, e.Name()))
		}
	}
}

// hasAnyPrefix reports whether name starts with any of the prefixes.
func hasAnyPrefix(name string, prefixes []string) bool {
	for _, pre := range prefixes {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

func readGraphFileBinary(path string) (*dcs.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dcs.ReadGraphBinary(f)
}

func (p *persister) noteRestoreError() {
	p.statMu.Lock()
	p.stats.RestoreErrors++
	p.statMu.Unlock()
}

// markDirty queues w for the next periodic checkpoint — unless w has been
// deleted or replaced, in which case a stale in-flight observe must not
// clobber the current same-named watch's pending mark. Touches only the
// dirty lock, never the disk mutex: observes must not stall behind a
// checkpoint in progress.
func (p *persister) markDirty(w *watch) {
	p.dirtyMu.Lock()
	defer p.dirtyMu.Unlock()
	if p.lookup != nil {
		if cur, ok := p.lookup(w.name); !ok || cur != w {
			return
		}
	}
	p.dirty[w.name] = w
}

// clearDirty removes w's mark if (and only if) it is w's own.
func (p *persister) clearDirty(w *watch) {
	p.dirtyMu.Lock()
	if p.dirty[w.name] == w {
		delete(p.dirty, w.name)
	}
	p.dirtyMu.Unlock()
}

// checkpointWatch durably records w's current state. Graph files commit
// before the manifest referencing them; the previous checkpoint's files are
// removed only afterwards, so a crash leaves one complete checkpoint.
func (p *persister) checkpointWatch(w *watch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Clear the dirty mark only if it is OUR mark: after a delete +
	// re-register under the same name, a flush of the stale pointer must
	// not absorb the live watch's pending checkpoint. An observation that
	// lands after this clear re-marks and is either captured below anyway
	// or re-checkpointed next flush — never lost.
	p.clearDirty(w)
	if p.lookup != nil {
		if cur, ok := p.lookup(w.name); !ok || cur != w {
			return nil // deleted (or replaced) since it was queued
		}
	}
	man, expect, last := w.checkpointState()
	key := fsKey(w.name)
	old := p.readWatchManifest(key)
	man.Seq = 1
	if old != nil {
		man.Seq = old.Seq + 1
	}
	seq := strconv.Itoa(man.Seq)
	man.ExpectFile = key + ".v" + seq + ".expect.dcsg"
	man.LastFile = key + ".v" + seq + ".last.dcsg"
	err := writeAtomic(filepath.Join(p.watchDir, man.ExpectFile), func(wr io.Writer) error {
		return dcs.WriteGraphBinaryV2(wr, expect, false)
	})
	if err == nil {
		err = writeAtomic(filepath.Join(p.watchDir, man.LastFile), func(wr io.Writer) error {
			return dcs.WriteGraphBinaryV2(wr, last, false)
		})
	}
	if err == nil {
		err = writeJSONFile(filepath.Join(p.watchDir, key+".json"), man)
	}
	if err == nil && old != nil {
		for _, f := range []string{old.ExpectFile, old.LastFile} {
			if f != "" && f != man.ExpectFile && f != man.LastFile {
				os.Remove(filepath.Join(p.watchDir, f))
			}
		}
	}
	p.countWrite(watchCheckpoints, err)
	return err
}

// deleteWatch removes the name's checkpoint files. The caller must already
// have removed its watch from the registry: the identity checks under mu
// then guarantee no flush re-creates the files. If a NEW watch has since
// claimed the name (delete + immediate re-register), the files on disk are
// the new owner's durable state and are left alone.
func (p *persister) deleteWatch(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lookup != nil {
		if _, ok := p.lookup(name); ok {
			return // a live re-registration owns this name's files now
		}
	}
	p.dirtyMu.Lock()
	delete(p.dirty, name)
	p.dirtyMu.Unlock()
	key := fsKey(name)
	if old := p.readWatchManifest(key); old != nil {
		for _, f := range []string{old.ExpectFile, old.LastFile} {
			if f != "" {
				os.Remove(filepath.Join(p.watchDir, f))
			}
		}
	}
	os.Remove(filepath.Join(p.watchDir, key+".json"))
}

func (p *persister) readWatchManifest(key string) *watchManifest {
	data, err := os.ReadFile(filepath.Join(p.watchDir, key+".json"))
	if err != nil {
		return nil
	}
	var m watchManifest
	if json.Unmarshal(data, &m) != nil {
		return nil
	}
	return &m
}

// flush checkpoints every watch observed since its last checkpoint.
func (p *persister) flush() {
	p.dirtyMu.Lock()
	ws := make([]*watch, 0, len(p.dirty))
	for _, w := range p.dirty {
		ws = append(ws, w)
	}
	p.dirtyMu.Unlock()
	for _, w := range ws {
		p.checkpointWatch(w) //nolint:errcheck // failures are counted in stats
	}
}

// recoverWatches rebuilds every checkpointed watch: the EWMA expectation
// and step resume via evolve.Restore, the delta base and report ring come
// back verbatim. opt is the server's solver options (not persisted — they
// are operator configuration).
func (p *persister) recoverWatches(opt dcs.Options) []*watch {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries, err := os.ReadDir(p.watchDir)
	if err != nil {
		p.noteRestoreError()
		return nil
	}
	keep := map[string]bool{}
	var keepPrefixes []string
	var out []*watch
	for _, e := range entries {
		fname := e.Name()
		if filepath.Ext(fname) != ".json" {
			continue
		}
		keep[fname] = true
		data, err := os.ReadFile(filepath.Join(p.watchDir, fname))
		if err != nil {
			p.noteRestoreError()
			keepPrefixes = append(keepPrefixes, strings.TrimSuffix(fname, ".json")+".v")
			continue
		}
		var m watchManifest
		if err := json.Unmarshal(data, &m); err != nil || m.Name == "" || m.N < 0 {
			// Unreadable manifest: as in recoverSnapshots, spare the key's
			// checkpoint files instead of sweeping payloads we can no
			// longer attribute.
			p.noteRestoreError()
			keepPrefixes = append(keepPrefixes, strings.TrimSuffix(fname, ".json")+".v")
			continue
		}
		keep[m.ExpectFile] = true
		keep[m.LastFile] = true
		w, err := p.restoreWatch(&m, opt)
		if err != nil {
			p.noteRestoreError()
			continue
		}
		out = append(out, w)
		p.statMu.Lock()
		p.stats.WatchesRestored++
		p.statMu.Unlock()
	}
	for _, e := range entries {
		if !keep[e.Name()] && !hasAnyPrefix(e.Name(), keepPrefixes) {
			os.Remove(filepath.Join(p.watchDir, e.Name()))
		}
	}
	return out
}

func (p *persister) restoreWatch(m *watchManifest, opt dcs.Options) (*watch, error) {
	expect, err := readGraphFileBinary(filepath.Join(p.watchDir, m.ExpectFile))
	if err != nil {
		return nil, err
	}
	last, err := readGraphFileBinary(filepath.Join(p.watchDir, m.LastFile))
	if err != nil {
		return nil, err
	}
	resync := m.ResyncEvery
	if resync < 0 {
		resync = 0 // tolerate a hand-edited manifest; fall back to default
	}
	tracker, err := evolve.Restore(m.N, evolve.Config{
		Lambda:      m.Lambda,
		MinDensity:  m.MinDensity,
		GA:          m.Measure == "affinity",
		Opt:         opt,
		ResyncEvery: resync,
	}, expect, last, m.Step)
	if err != nil {
		return nil, err
	}
	ringCap := m.ReportCap
	if ringCap < 1 {
		ringCap = 1
	}
	reports := m.Reports
	if len(reports) > ringCap {
		reports = reports[len(reports)-ringCap:]
	}
	if resync == 0 {
		resync = evolve.DefaultResyncEvery // echo the applied default in infos
	}
	w := &watch{
		name:         m.Name,
		n:            m.N,
		lambda:       m.Lambda,
		measure:      m.Measure,
		minDensity:   m.MinDensity,
		solveTimeout: time.Duration(m.SolveTimeoutMS * float64(time.Millisecond)),
		ringCap:      ringCap,
		resync:       resync,
		created:      m.CreatedAt,
		tracker:      tracker,
		step:         m.Step,
		reports:      append([]WatchReport(nil), reports...),
		anomalies:    m.Anomalies,
	}
	if m.LastSeen != nil {
		w.lastSeen = *m.LastSeen
	}
	return w, nil
}

// statsSnapshot returns the current counters for /healthz.
func (p *persister) statsSnapshot() PersistStats {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	return p.stats
}
