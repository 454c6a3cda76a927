package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/kplex"
	"repro/internal/store"
)

// servedOptions are the engine options kplexd uses for a request that
// leaves threads and scheduler unset: NumCPU threads, the stages
// scheduler and a 2 ms task timeout when parallel.
func servedOptions(c cell) kplex.Options {
	o := kplex.NewOptions(c.K, c.Q)
	o.Threads = runtime.NumCPU()
	o.Scheduler = kplex.SchedulerStages
	if o.Threads > 1 {
		o.TaskTimeout = 2 * time.Millisecond
	}
	return o
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// probeTotals sums the replay over the probe cells.
type probeTotals struct {
	parse, open, prep, persist, seedBuild, branch, unattr, emit time.Duration
	t1, tServed                                                 time.Duration
	seeds, space, builds, dense, branches, ub, r1, emitted      int64
	splits, steals, bytesOut, plexes                            int64
	overhead, jobOver                                           []float64
}

// probe is the traced run's layer replay. For each probe cell a fresh
// kplexd answers a cold /query count, which pays the prologue, then a
// /query histogram and a /jobs job of the same cell, which both hit the
// prepared cache and miss the result cache. The same work is then
// replayed in-process, one span per layer call: reading the served file,
// the prologue, persisting it, a seed-build pass, a 1-thread run with
// phase timers, a run at the served defaults, and a stream drained into
// an NDJSON encoder.
func (b *bench) probe() error {
	in, _, _, err := b.start()
	if err != nil {
		return err
	}
	defer in.close()
	in.tr = b.tr
	cat, err := store.OpenCatalog(filepath.Join(b.work, "probe-catalog"))
	if err != nil {
		return err
	}
	var t probeTotals
	for _, c := range b.s.ProbeCells {
		q := in.query(b.chk, c, "count", 0, &b.buf)
		q.verify()
		w := in.query(b.chk, c, "histogram", 0, &b.buf)
		w.verify()
		j := in.job(b.chk, c, &b.buf)
		j.verify()
		b.rep.count(q, w, j)
		if err := b.probeCell(c, cat, w, j, &t); err != nil {
			return err
		}
	}
	r := b.rep
	r.set("server.overhead_ms", medianOr0(t.overhead), "ms")
	r.set("jobs.overhead_ms", medianOr0(t.jobOver), "ms")
	r.set("graph.parse_ms", ms(t.parse), "ms")
	r.set("store.open_ms", ms(t.open), "ms")
	r.set("store.persist_ms", ms(t.persist), "ms")
	r.set("kplex.prepare_ms", ms(t.prep), "ms")
	r.set("kplex.seeds", float64(t.seeds), "count")
	r.set("kplex.seed_build_ms", ms(t.seedBuild), "ms")
	r.set("kplex.seed_build_yield", ratio(float64(t.builds), float64(t.space)), "ratio")
	r.set("kplex.dense_share", ratio(float64(t.dense), float64(t.space)), "ratio")
	r.set("kplex.branch_ms", ms(t.branch), "ms")
	r.set("kplex.unattributed_ms", ms(t.unattr), "ms")
	r.set("kplex.branches", float64(t.branches), "count")
	r.set("kplex.ub_pruned", float64(t.ub), "count")
	r.set("kplex.r1_pruned", float64(t.r1), "count")
	r.set("kplex.emitted_per_kbranch", 1000*ratio(float64(t.emitted), float64(t.branches)), "ratio")
	r.set("kplex.parallel_speedup", ratio(float64(t.t1), float64(t.tServed)), "ratio")
	r.set("kplex.splits", float64(t.splits), "count")
	r.set("kplex.steals", float64(t.steals), "count")
	r.set("sink.emit_ms", ms(t.emit), "ms")
	r.set("sink.bytes_per_plex", ratio(float64(t.bytesOut), float64(t.plexes)), "B")
	b.note("probe: %d cells replayed in-process", len(b.s.ProbeCells))
	return nil
}

// probeCell replays one cell in-process and adds it to t; w and j are
// the cell's /query and /jobs job on a warm prepared cache.
func (b *bench) probeCell(c cell, cat *store.Catalog, w, j outcome, t *probeTotals) error {
	root := b.tr.begin(nil, "bench.probe")
	defer root.end()
	timed := func(name string, f func() error) (time.Duration, error) {
		sp := b.tr.begin(root, name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return d, fmt.Errorf("probe %s %s: %w", c.key(), name, err)
		}
		return d, nil
	}
	ctx := context.Background()
	gs := b.s.graph(c.Graph)
	var csr graph.CSR
	closeG := func() {}
	name := "graph.parse"
	if gs.Store {
		name = "store.open"
	}
	d, err := timed(name, func() (err error) {
		csr, closeG, err = openServed(gs, b.data, b.store)
		return err
	})
	if err != nil {
		return err
	}
	defer closeG()
	if gs.Store {
		t.open += d
	} else {
		t.parse += d
	}
	opts := kplex.NewOptions(c.K, c.Q)
	var p *kplex.Prepared
	dPrep, err := timed("kplex.prepare", func() (err error) {
		p, err = kplex.Prepare(csr, opts)
		return err
	})
	if err != nil {
		return err
	}
	t.prep += dPrep
	if gs.Store {
		d, err := timed("store.persist", func() error {
			digest := graph.DigestOf(csr)
			return cat.SavePrologue(hex.EncodeToString(digest[:]), c.K, c.Q, opts.UseCTCP, kplex.MarshalPrepared(p, digest))
		})
		if err != nil {
			return err
		}
		t.persist += d
	}
	if _, err := timed("kplex.seed_build", func() error {
		pass, nb, nd, err := kplex.SeedBuildPass(csr, opts, 1)
		t.seedBuild += pass
		t.builds += int64(nb)
		t.dense += nd
		return err
	}); err != nil {
		return err
	}
	t.space += int64(p.SeedSpace())
	o1 := opts
	o1.PhaseTimers = true
	var r1, rs kplex.Result
	if _, err := timed("kplex.run_1t", func() (err error) {
		r1, err = kplex.RunPrepared(ctx, p, o1)
		return err
	}); err != nil {
		return err
	}
	if _, err := timed("kplex.run_served", func() (err error) {
		rs, err = kplex.RunPrepared(ctx, p, servedOptions(c))
		return err
	}); err != nil {
		return err
	}
	var cw countingWriter
	dStream, err := timed("sink.emit", func() error {
		h, err := kplex.RunStreamPrepared(ctx, p, servedOptions(c))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(&cw)
		for pl := range h.C() {
			if err := enc.Encode(pl); err != nil {
				return err
			}
			t.plexes++
		}
		_, err = h.Wait()
		return err
	})
	if err != nil {
		return err
	}
	if ref := b.chk.ref(c).Count; r1.Count != ref || rs.Count != ref {
		b.rep.wrong++
		b.rep.errs = append(b.rep.errs, fmt.Sprintf("probe %s: library counts %d (1 thread) and %d (served defaults), reference %d", c.key(), r1.Count, rs.Count, ref))
	}
	t.bytesOut += cw.n
	t.emit += dStream - rs.Elapsed
	t.t1 += r1.Elapsed
	t.tServed += rs.Elapsed
	t.branch += time.Duration(r1.Stats.BranchNS)
	t.unattr += r1.Elapsed - time.Duration(r1.Stats.SeedBuildNS+r1.Stats.BranchNS)
	t.seeds += r1.Stats.Seeds
	t.branches += r1.Stats.Branches
	t.ub += r1.Stats.UBPruned
	t.r1 += r1.Stats.TasksPrunedR1
	t.emitted += r1.Stats.Emitted
	t.splits += rs.Stats.Splits
	t.steals += rs.Stats.Steals
	// Neither the warm query nor the job pays the prologue or its
	// persistence, so both overheads leave the kplex and store layers out.
	if !w.Failed && !w.Wrong {
		t.overhead = append(t.overhead, ms(w.RT-rs.Elapsed))
		if !j.Failed && !j.Wrong {
			t.jobOver = append(t.jobOver, ms(j.RT-w.RT))
		}
	}
	return nil
}
