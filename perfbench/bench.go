package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// setupReps is how many times serve-mix sets kplexd up before a round
// and after each one; setup_s is the median of them all. The closed loops
// set up once per pass.
const setupReps = 3

// bench is one run of one workload.
type bench struct {
	cfg   config
	s     *spec
	work  string // per-run scratch directory
	data  string // edge lists (kplexd's DataDir)
	store string // store files, linked into each fresh catalog
	chk   *checker
	tr    *tracer // nil on untraced runs
	rep   *report
	buf   bytes.Buffer
	dirs  int
	out   io.Writer
	// walBytes sums the job WALs of the traced passes or, on serve-mix,
	// of the latency segments.
	walBytes int64
	graphs   map[string]*graph.Graph // served graphs, materialized on first use
}

// report accumulates the request outcomes and metrics of a run.
type report struct {
	metrics           map[string]metric
	attempted, failed int
	wrong             int
	errs              []string
}

// set records a metric. JSON has no infinity: a latency that failed
// requests pushed to +Inf is reported as the largest float, which misses
// every limit just the same.
func (r *report) set(name string, v float64, unit string) {
	if !isFinite(v) {
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) count(outs ...outcome) {
	for _, o := range outs {
		r.attempted++
		switch {
		case o.Wrong:
			r.wrong++
		case o.Failed:
			r.failed++
		default:
			continue
		}
		if len(r.errs) < 5 {
			r.errs = append(r.errs, o.Err)
		}
	}
}

func runBench(cfg config, out io.Writer) (*result, provenance, error) {
	prov := getProvenance(cfg)
	s, err := workloadSpec(cfg.Workload, cfg.Smoke)
	if err != nil {
		return nil, prov, err
	}
	if cfg.Seconds <= 0 {
		return nil, prov, fmt.Errorf("--seconds must be positive")
	}
	work := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	b := &bench{cfg: cfg, s: s, work: work, data: filepath.Join(work, "data"), store: filepath.Join(work, "store"),
		rep: &report{metrics: map[string]metric{}}, graphs: map[string]*graph.Graph{}, out: out}
	for _, d := range []string{b.data, b.store} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, prov, err
		}
	}
	defer os.RemoveAll(work)
	if err := writeInputs(s, cfg.Seed, b.data, b.store); err != nil {
		return nil, prov, err
	}
	refs, err := references(cfg, work)
	if err != nil {
		return nil, prov, err
	}
	if cfg.CorruptRef {
		corrupt(s, refs)
	}
	b.chk = &checker{refs: refs, graphs: b.servedGraph, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Trace {
		b.tr = &tracer{}
	}

	fmt.Fprintf(out, "# provenance %s\n", mustJSON(prov))
	if s.Name == "serve-mix" {
		err = b.serveMix()
	} else {
		err = b.closedLoop()
	}
	if err != nil {
		return nil, prov, err
	}
	sampleErrs := b.chk.checkSamples()
	b.rep.wrong += len(sampleErrs)
	b.rep.errs = append(b.rep.errs, sampleErrs...)
	if cfg.Trace {
		if err := b.probe(); err != nil {
			return nil, prov, err
		}
		self := b.tr.selfTimes()
		for _, layer := range []string{"server", "jobs", "kplex", "sink", "store", "graph"} {
			b.rep.set(layer+".self_ms", ms(self[layer]), "ms")
		}
		path := filepath.Join(buildDir, "results", fmt.Sprintf("spans-%s-seed%d.ndjson", cfg.Workload, cfg.Seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, prov, err
		}
		if err := b.tr.write(path); err != nil {
			return nil, prov, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, prov, err
		}
		b.rep.set("peak_rss_mib", rss, "MiB")
		bad := b.rep.failed + b.rep.wrong
		b.rep.set("ok_rate", 1-float64(bad)/float64(max(1, b.rep.attempted)), "ratio")
	}

	names := make([]string, 0, len(b.rep.metrics))
	for n := range b.rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.rep.metrics[n]
		fmt.Fprintf(out, "%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "# requests attempted=%d failed=%d wrong=%d\n", b.rep.attempted, b.rep.failed, b.rep.wrong)
	for _, e := range b.rep.errs {
		fmt.Fprintf(out, "# error: %s\n", e)
	}
	return &result{
		Correct:   b.rep.wrong == 0,
		Attempted: max(1, b.rep.attempted),
		Failed:    b.rep.failed + b.rep.wrong,
		Metrics:   b.rep.metrics,
	}, prov, nil
}

// corrupt perturbs the reference of a cell every run asks for (the
// hottest serve-mix cell, the first cell of a closed loop), so the
// self-test can show that a wrong answer fails the command.
func corrupt(s *spec, refs map[string]*refAnswer) {
	refs[s.allCells()[0].key()].Count++
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// servedGraph returns the named graph as kplexd serves it, materialized
// for the maximality checks.
func (b *bench) servedGraph(name string) (*graph.Graph, error) {
	if g := b.graphs[name]; g != nil {
		return g, nil
	}
	csr, closeG, err := openServed(b.s.graph(name), b.data, b.store)
	if err != nil {
		return nil, err
	}
	defer closeG()
	g := graph.Materialize(csr)
	b.graphs[name] = g
	return g, nil
}

func (b *bench) graphNames() []string {
	names := make([]string, len(b.s.Graphs))
	for i, g := range b.s.Graphs {
		names[i] = g.Name
	}
	return names
}

// freshDirs returns an empty jobs directory and, when the workload serves
// store files, a new catalog holding links to them with no prologues.
func (b *bench) freshDirs() (catalog, jobsDir string, err error) {
	b.dirs++
	base := filepath.Join(b.work, fmt.Sprintf("inst-%d", b.dirs))
	jobsDir = filepath.Join(base, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		return "", "", err
	}
	for _, g := range b.s.Graphs {
		if !g.Store {
			continue
		}
		catalog = filepath.Join(base, "catalog")
		if err := os.MkdirAll(catalog, 0o755); err != nil {
			return "", "", err
		}
		name := g.Name + store.StoreExt
		if err := os.Link(filepath.Join(b.store, name), filepath.Join(catalog, name)); err != nil {
			return "", "", err
		}
	}
	return catalog, jobsDir, nil
}

// start sets kplexd up: a new server and every graph resident.
func (b *bench) start() (*instance, time.Duration, time.Duration, error) {
	catalog, jobsDir, err := b.freshDirs()
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	in, err := newInstance(b.data, catalog, jobsDir)
	if err != nil {
		return nil, 0, 0, err
	}
	in.jobsDir = jobsDir
	load, err := in.loadGraphs(b.graphNames())
	setup := time.Since(t0)
	if err != nil {
		in.close()
		return nil, 0, 0, err
	}
	return in, setup, load, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serverDeltas turns /metrics deltas into the server, qos and jobs
// per-layer metrics.
func (b *bench) serverDeltas(m0, m1 map[string]float64, jobsDone int, walBytes int64) {
	d := func(name string) float64 { return m1[name] - m0[name] }
	hits, misses := d("kplexd_cache_hits_total"), d("kplexd_cache_misses_total")
	b.rep.set("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	b.rep.set("server.flight_shared", d("kplexd_flight_shared_total"), "count")
	ph := d("kplexd_prepared_hits_total")
	b.rep.set("server.prepared_hit_ratio", ratio(ph, ph+d("kplexd_prepared_misses_total")+d("kplexd_prepared_warm_loads_total")), "ratio")
	b.rep.set("qos.admission_wait_ms", 1000*ratio(d("kplexd_admission_wait_seconds_sum"), d("kplexd_admission_wait_seconds_count")), "ms")
	b.rep.set("qos.rejected", d("kplexd_rejected_total"), "count")
	jd := float64(max(1, jobsDone))
	b.rep.set("jobs.checkpoints", d("kplexd_jobs_checkpoints_total")/jd, "count/job")
	b.rep.set("jobs.fsync_ms", 1000*d("kplexd_wal_fsync_duration_seconds_sum")/jd, "ms/job")
	b.rep.set("jobs.wal_bytes", float64(walBytes)/jd, "B/job")
}

// walBytes sums the job WAL files under dir.
func walBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // a missing file only shrinks the sum
		if err == nil && !fi.IsDir() && fi.Name() == "wal.ndjson" {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// kindStats sums round trips per request kind and collects cache-hit and
// batch round trips.
type kindStats struct {
	sum            map[string]time.Duration
	n              map[string]int
	hitRT, batchRT []float64
}

func summarize(outs []outcome) kindStats {
	k := kindStats{sum: map[string]time.Duration{}, n: map[string]int{}}
	for _, o := range outs {
		k.sum[o.Kind] += o.RT
		k.n[o.Kind]++
		if o.Kind == "query" && o.Cached {
			k.hitRT = append(k.hitRT, ms(o.RT))
		}
		if o.Kind == "batch" {
			k.batchRT = append(k.batchRT, ms(o.RT))
		}
	}
	return k
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// note prints one human-readable line ahead of the result.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}
