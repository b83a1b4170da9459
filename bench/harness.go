package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dynsample/internal/catalog"
	"dynsample/internal/core"
	"dynsample/internal/engine"
	"dynsample/internal/ingest"
	"dynsample/internal/server"
)

// sut is the system under test: the same pieces aqpd wires together — base
// data, pre-processed samples in a catalog, optionally a WAL-backed ingest
// coordinator — behind a real net/http server on a loopback TCP listener.
type sut struct {
	def      workloadDef
	dir      string
	base     *engine.Database // regenerated base data, before any ingest
	sys      *core.System
	strategy *core.SmallGroup
	cat      *catalog.Catalog
	wal      *ingest.WAL
	coord    *ingest.Coordinator
	srv      *server.Server
	front    *frontend
	phases   setupPhases
}

// setupPhases times the steps of a set-up that a layer metric or a
// diagnostic reports.
type setupPhases struct {
	Generate, Preprocess, Save, Warmup time.Duration
}

// frontend is a serving net/http server over one core.System.
type frontend struct {
	http    *http.Server
	url     string
	done    chan error
	once    sync.Once
	stopErr error
}

func serve(h http.Handler) (*frontend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &frontend{
		http: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { f.done <- f.http.Serve(ln) }()
	return f, nil
}

// stop drains the server and waits for its accept loop to exit. Stopping
// twice is harmless.
func (f *frontend) stop() error {
	f.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.stopErr = f.http.Shutdown(ctx)
		if serr := <-f.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && f.stopErr == nil {
			f.stopErr = serr
		}
	})
	return f.stopErr
}

func smallGroup(workers int) *core.SmallGroup {
	return core.NewSmallGroup(core.SmallGroupConfig{BaseRate: baseRate, Seed: strategySeed, Workers: workers})
}

// ingestConfig is the coordinator configuration of every ingest workload.
// The drift trigger is disabled: background rebuilds run as their own timed
// phase, never inside a measured one.
func ingestConfig(baseRows int) ingest.Config {
	return ingest.Config{
		Online:     core.OnlineConfig{Seed: onlineSeed, SmallGroupFraction: 0.5 * baseRate},
		DriftBound: -1,
		BaseRows:   baseRows,
	}
}

// setUp builds a complete system in dir and leaves it serving. warm runs the
// workload's warm-up pass against the fresh server and is timed as part of
// the set-up.
func setUp(def workloadDef, dir string, warm func(*sut) error) (*sut, error) {
	s := &sut{def: def, dir: dir, strategy: smallGroup(def.Workers)}
	var err error

	t := time.Now()
	if s.base, err = generateDB(def.Rows); err != nil {
		return nil, err
	}
	s.phases.Generate = time.Since(t)

	t = time.Now()
	s.sys = core.NewSystem(s.base)
	if err = s.sys.AddStrategy(s.strategy); err != nil {
		return nil, err
	}
	s.phases.Preprocess = time.Since(t)

	t = time.Now()
	if s.cat, err = catalog.Open(filepath.Join(dir, "catalog"), catalog.Options{}); err != nil {
		return nil, err
	}
	p, _ := s.sys.Prepared(server.DefaultStrategy)
	gen, err := s.cat.Save(func(w io.Writer) error { return core.SaveSmallGroup(w, p) })
	if err != nil {
		return nil, fmt.Errorf("first catalog save: %w", err)
	}
	s.phases.Save = time.Since(t)

	if def.Kind != queryOnly {
		if s.wal, err = ingest.OpenWAL(filepath.Join(dir, "wal")); err != nil {
			return nil, err
		}
		if s.coord, err = ingest.New(s.sys, s.wal, ingestConfig(0)); err != nil {
			return nil, err
		}
	}

	s.srv = server.New(s.sys, server.Config{
		Rebuild: server.RebuildConfig{Strategy: s.strategy, Catalog: s.cat, Workers: def.Workers},
		Ingest:  s.coord,
	})
	s.srv.MarkGeneration(gen, "preprocess")
	if s.front, err = serve(s.srv.Handler()); err != nil {
		return nil, err
	}

	t = time.Now()
	if err = warm(s); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.phases.Warmup = time.Since(t)
	return s, nil
}

// stopServing shuts the server and the ingest path down, leaving the catalog
// and WAL directories on disk for restart measurements.
func (s *sut) stopServing() error {
	var err error
	if s.front != nil {
		err = s.front.stop()
		s.front = nil
	}
	if s.coord != nil {
		s.coord.Close()
		s.coord = nil
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.wal = nil
	}
	return err
}

// close stops everything and removes the system's directory.
func (s *sut) close() error {
	err := s.stopServing()
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// restarted is a system recovered from disk, serving.
type restarted struct {
	sys    *core.System
	front  *frontend
	coord  *ingest.Coordinator
	wal    *ingest.WAL
	replay ingest.ReplayStats
}

func (r *restarted) stop() error {
	err := r.front.stop()
	if r.coord != nil {
		r.coord.Close()
		if cerr := r.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// restart recovers a fresh core.System from the stopped sut's directories the
// way aqpd does at start-up: base data → newest verifying catalog snapshot →
// (ingest workloads) WAL open, coordinator, tail replay → listener.
//
// base is the regenerated base data. The engine's copy-on-write appends
// assume one writer lineage per database, so a recovery that re-applies
// ingested rows needs a base no earlier lineage has appended to; a
// query-only recovery appends nothing and may share s.base.
func (s *sut) restart(base *engine.Database) (*restarted, error) {
	r := &restarted{sys: core.NewSystem(base)}
	cat, err := catalog.Open(filepath.Join(s.dir, "catalog"), catalog.Options{})
	if err != nil {
		return nil, err
	}
	var snap *ingest.Snapshot
	res, err := cat.LoadLatest(func(rd io.Reader) error {
		sn, derr := ingest.DecodeSnapshot(rd)
		snap = sn
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("catalog load: %w", err)
	}
	if wc, ok := snap.Prepared.(core.WorkerConfigurable); ok {
		wc.SetWorkers(s.def.Workers)
	}
	if err := snap.Restore(r.sys, server.DefaultStrategy); err != nil {
		return nil, err
	}
	if s.def.Kind != queryOnly {
		if r.wal, err = ingest.OpenWAL(filepath.Join(s.dir, "wal")); err != nil {
			return nil, err
		}
		baseRows := 0
		if ck := snap.Checkpoint; ck != nil {
			baseRows = int(ck.BaseRows)
			if _, err := r.wal.RemoveSegmentsBelow(ck.Seg); err != nil {
				return nil, fmt.Errorf("wal gc: %w", err)
			}
		}
		if r.coord, err = ingest.New(r.sys, r.wal, ingestConfig(baseRows)); err != nil {
			return nil, err
		}
		r.coord.SeedIdempotency(snap.IDs)
		if r.replay, err = r.coord.ReplayWAL(); err != nil {
			return nil, fmt.Errorf("wal replay: %w", err)
		}
	}
	srv := server.New(r.sys, server.Config{Ingest: r.coord})
	srv.MarkGeneration(res.Generation, "snapshot")
	if r.front, err = serve(srv.Handler()); err != nil {
		return nil, err
	}
	return r, nil
}
