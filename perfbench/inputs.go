package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/kplex"
	"repro/internal/store"
)

// graphSpec is one input graph. The benchmark generates it from the
// workload seed and hands it to kplexd only as a file: an edge list in
// the data directory, or a .kpg store file registered in the catalog.
type graphSpec struct {
	Name  string
	Store bool
	build func(seed int64) *graph.Graph
}

// cell is one (graph, k, q) enumeration: the unit references are kept for.
type cell struct {
	Graph string
	K, Q  int
}

func (c cell) key() string { return fmt.Sprintf("%s|%d|%d", c.Graph, c.K, c.Q) }

// sweepCell is one /query of the sparse sweep.
type sweepCell struct {
	cell
	Mode string
}

// batchSweep is one /batch q-sweep of the serving mix.
type batchSweep struct {
	Graph string
	K     int
	Qs    []int
	Mode  string
}

// spec is everything a workload sends, derived from its name alone; the
// seed only changes the graphs and, for serve-mix, the order of requests.
type spec struct {
	Name   string
	Graphs []graphSpec

	// serve-mix
	QueryCells  []cell // popularity rank order (rank 0 hottest)
	Modes       []queryMode
	StreamCells []cell // also run as durable jobs
	Batches     []batchSweep

	// sweep-sparse
	Sweep []sweepCell

	// closed loops: cells answered as /stream and /jobs after their /query
	DeepCells []cell

	// ProbeCells are replayed in-process by the traced run.
	ProbeCells []cell
}

// queryMode is a cacheable /query mode with its own parameter.
type queryMode struct {
	Mode string
	TopN int
}

// refTopN bounds the reference top-k list; every topk request asks for at
// most this many.
const refTopN = 20

func (s *spec) allCells() []cell {
	seen := map[string]bool{}
	var out []cell
	add := func(c cell) {
		if !seen[c.key()] {
			seen[c.key()] = true
			out = append(out, c)
		}
	}
	for _, c := range s.QueryCells {
		add(c)
	}
	for _, c := range s.StreamCells {
		add(c)
	}
	for _, b := range s.Batches {
		for _, q := range b.Qs {
			add(cell{b.Graph, b.K, q})
		}
	}
	for _, c := range s.Sweep {
		add(c.cell)
	}
	for _, c := range s.DeepCells {
		add(c)
	}
	for _, c := range s.ProbeCells {
		add(c)
	}
	return out
}

func (s *spec) graph(name string) graphSpec {
	for _, g := range s.Graphs {
		if g.Name == name {
			return g
		}
	}
	panic("unknown graph " + name)
}

func planted(n, comms, size, drop, overlap int, p float64) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph {
		return gen.Planted(gen.PlantedConfig{N: n, BackgroundP: p, Communities: comms,
			CommSize: size, DropPerV: drop, Overlap: overlap, Seed: seed})
	}
}

// workloadSpec returns the named workload. smoke shrinks every input to a
// few hundred vertices so the self-tests finish in seconds.
func workloadSpec(name string, smoke bool) (*spec, error) {
	switch name {
	case "serve-mix":
		return serveMixSpec(smoke), nil
	case "sweep-sparse":
		return sweepSparseSpec(smoke), nil
	case "deep-search":
		return deepSearchSpec(smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve-mix, sweep-sparse or deep-search)", name)
}

// serveMixSpec: six resident graphs of 10^2-10^4 vertices, each with
// (k, q) cells that enumerate in under 10 ms single-threaded. The generators are ones whose
// enumeration cost moves little with the seed (planted communities,
// small-world rings, preferential attachment), so runs with different
// seeds stay comparable. With six cacheable mode variants the 300 query
// variants exceed kplexd's default 256 result cache entries, so Zipf
// traffic produces hits, misses and evictions.
func serveMixSpec(smoke bool) *spec {
	type gcells struct {
		g      graphSpec
		kqs    [][2]int
		stream [2]int // the cell streamed and run as a job; zero: none
	}
	all := []gcells{
		{graphSpec{Name: "planted-300.txt", build: planted(300, 8, 12, 1, 2, 0.02)},
			[][2]int{{1, 3}, {1, 4}, {1, 5}, {2, 4}, {2, 5}, {2, 6}, {3, 7}, {3, 8}}, [2]int{2, 4}},
		{graphSpec{Name: "ws-1000.txt", build: func(s int64) *graph.Graph { return gen.WattsStrogatz(1000, 10, 0.2, s) }},
			[][2]int{{1, 3}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {2, 7}, {3, 8}, {3, 9}}, [2]int{2, 6}},
		{graphSpec{Name: "planted-1500.txt", build: planted(1500, 15, 16, 2, 3, 0.003)},
			[][2]int{{1, 4}, {1, 6}, {1, 8}, {2, 5}, {2, 6}, {2, 8}, {2, 10}, {2, 12}, {3, 8}, {3, 9}, {3, 11}, {3, 13}}, [2]int{2, 8}},
		{graphSpec{Name: "ba-3000.txt", build: func(s int64) *graph.Graph { return gen.BarabasiAlbert(3000, 4, s) }},
			[][2]int{{1, 3}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {2, 7}, {3, 7}, {3, 8}}, [2]int{2, 5}},
		{graphSpec{Name: "ws-5000.txt", build: func(s int64) *graph.Graph { return gen.WattsStrogatz(5000, 8, 0.1, s) }},
			[][2]int{{1, 6}, {1, 7}, {1, 8}, {2, 7}, {2, 8}, {2, 9}, {3, 8}, {3, 9}}, [2]int{}},
		{graphSpec{Name: "ba-10000.txt", build: func(s int64) *graph.Graph { return gen.BarabasiAlbert(10000, 3, s) }},
			[][2]int{{1, 4}, {1, 5}, {2, 5}, {2, 6}, {3, 7}, {3, 8}}, [2]int{}},
	}
	if smoke {
		all = []gcells{
			{graphSpec{Name: "planted-100.txt", build: planted(100, 3, 10, 1, 2, 0.02)},
				[][2]int{{1, 3}, {2, 4}, {2, 5}}, [2]int{2, 4}},
			{graphSpec{Name: "ws-200.txt", build: func(s int64) *graph.Graph { return gen.WattsStrogatz(200, 6, 0.2, s) }},
				[][2]int{{1, 4}, {2, 4}, {2, 5}, {3, 6}}, [2]int{2, 4}},
		}
	}
	s := &spec{Name: "serve-mix"}
	s.Modes = []queryMode{{"count", 0}, {"histogram", 0}, {"topk", 1}, {"topk", 3}, {"topk", 10}, {"topk", 20}}
	if smoke {
		s.Modes = s.Modes[:3]
	}
	// Popularity rank interleaves the graphs, so the hot set mixes graph
	// sizes.
	for i := 0; ; i++ {
		added := false
		for _, gc := range all {
			if i < len(gc.kqs) {
				s.QueryCells = append(s.QueryCells, cell{gc.g.Name, gc.kqs[i][0], gc.kqs[i][1]})
				added = true
			}
		}
		if !added {
			break
		}
	}
	for _, gc := range all {
		s.Graphs = append(s.Graphs, gc.g)
		first := gc.kqs[0]
		s.ProbeCells = append(s.ProbeCells, cell{gc.g.Name, first[0], first[1]})
		if gc.stream[0] > 0 {
			sc := cell{gc.g.Name, gc.stream[0], gc.stream[1]}
			s.StreamCells = append(s.StreamCells, sc)
			s.ProbeCells = append(s.ProbeCells, sc)
		}
		var qs []int
		for _, kq := range gc.kqs {
			if kq[0] == 2 {
				qs = append(qs, kq[1])
			}
		}
		s.Batches = append(s.Batches, batchSweep{Graph: gc.g.Name, K: 2, Qs: qs, Mode: "count"})
	}
	return s
}

// sweepSparseSpec: a (k, q) sweep over large sparse graphs served
// mmap-backed from the catalog. Cells keep branch-and-bound a minor share
// of each run, and no cell is more than a fifth of a pass.
func sweepSparseSpec(smoke bool) *spec {
	s := &spec{Name: "sweep-sparse"}
	ws := graphSpec{Name: "ws-20000", Store: true, build: func(sd int64) *graph.Graph { return gen.WattsStrogatz(20000, 10, 0.1, sd) }}
	ba := graphSpec{Name: "ba-25000", Store: true, build: func(sd int64) *graph.Graph { return gen.BarabasiAlbert(25000, 11, sd) }}
	pl := graphSpec{Name: "chunglu-20000", Store: true, build: func(sd int64) *graph.Graph { return gen.ChungLu(20000, 6, 2.6, sd) }}
	type kqm struct {
		k, q int
		mode string
	}
	plan := []struct {
		g     graphSpec
		cells []kqm
	}{
		{ws, []kqm{{2, 5, "count"}, {2, 6, "histogram"}, {3, 7, "count"}, {3, 8, "histogram"}, {4, 10, "count"}}},
		{ba, []kqm{{2, 6, "count"}, {2, 8, "histogram"}, {3, 10, "count"}}},
		{pl, []kqm{{2, 5, "histogram"}, {2, 6, "count"}, {3, 8, "histogram"}}},
	}
	if smoke {
		ws.build = func(sd int64) *graph.Graph { return gen.WattsStrogatz(600, 8, 0.1, sd) }
		ba.build = func(sd int64) *graph.Graph { return gen.BarabasiAlbert(800, 5, sd) }
		plan = plan[:2]
		plan[0].g, plan[1].g = ws, ba
		plan[0].cells = plan[0].cells[:2]
		plan[1].cells = plan[1].cells[:2]
	}
	for _, p := range plan {
		s.Graphs = append(s.Graphs, p.g)
		for _, c := range p.cells {
			s.Sweep = append(s.Sweep, sweepCell{cell{p.g.Name, c.k, c.q}, c.mode})
		}
	}
	// The stream and the job re-ask two ring cells after their /query, so
	// they price emission and durability on a sparse graph's many small
	// plexes; the ring's plex counts barely move with the seed.
	s.DeepCells = []cell{s.Sweep[1].cell, s.Sweep[3].cell}
	for i, c := range s.Sweep {
		if i%2 == 0 || smoke {
			s.ProbeCells = append(s.ProbeCells, c.cell)
		}
	}
	return s
}

// deepSearchSpec: community and power-law cells where branch-and-bound
// dominates, each answered as /query count, full /stream and /jobs job.
func deepSearchSpec(smoke bool) *spec {
	s := &spec{Name: "deep-search"}
	s.Graphs = []graphSpec{
		{Name: "wiki-vote-syn.txt", build: func(sd int64) *graph.Graph { return gen.ChungLu(2000, 28, 2.15, sd) }},
		{Name: "straggler-syn.txt", build: planted(3000, 30, 24, 2, 6, 0.002)},
		{Name: "planted-3000.txt", build: planted(3000, 30, 26, 2, 6, 0.002)},
	}
	s.DeepCells = []cell{{"wiki-vote-syn.txt", 2, 12}, {"straggler-syn.txt", 3, 9}, {"planted-3000.txt", 2, 10}}
	if smoke {
		s.Graphs = []graphSpec{
			{Name: "chunglu-300.txt", build: func(sd int64) *graph.Graph { return gen.ChungLu(300, 12, 2.3, sd) }},
			{Name: "planted-300.txt", build: planted(300, 6, 14, 2, 3, 0.01)},
		}
		s.DeepCells = []cell{{"chunglu-300.txt", 2, 6}, {"planted-300.txt", 3, 8}}
	}
	s.ProbeCells = s.DeepCells
	return s
}

// graphSeed derives the generator seed of graph i from the workload seed.
func graphSeed(seed int64, i int) int64 { return seed*1009 + int64(i)*7919 + 1 }

// writeInputs generates every graph and writes it where kplexd will find
// it: edge lists into dataDir, store files into catalogDir.
func writeInputs(s *spec, seed int64, dataDir, catalogDir string) error {
	for i, gs := range s.Graphs {
		g := gs.build(graphSeed(seed, i))
		var err error
		if gs.Store {
			err = store.WriteGraphFile(filepath.Join(catalogDir, gs.Name+store.StoreExt), g, store.DefaultBlockVerts)
		} else {
			err = graph.WriteEdgeListFile(filepath.Join(dataDir, gs.Name), g)
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", gs.Name, err)
		}
	}
	return nil
}

// openServed opens a graph file exactly as kplexd serves it, so references
// and replays see the same vertex ids: parsed edge lists compact ids,
// store files keep them.
func openServed(gs graphSpec, dataDir, catalogDir string) (graph.CSR, func(), error) {
	if gs.Store {
		r, err := store.OpenFile(filepath.Join(catalogDir, gs.Name+store.StoreExt))
		if err != nil {
			return nil, nil, err
		}
		return r, func() { r.Close() }, nil
	}
	rr, err := graph.ReadAnyFile(filepath.Join(dataDir, gs.Name))
	if err != nil {
		return nil, nil, err
	}
	return rr.Graph, func() {}, nil
}

// refAnswer is the reference answer of one cell, from a 1-thread library
// run over the served file.
type refAnswer struct {
	Count   int64         `json:"count"`
	MaxSize int           `json:"maxSize"`
	Hist    map[int]int64 `json:"hist"`
	TopK    [][]int       `json:"topk"` // size desc, lex asc; at most refTopN
	Digest  string        `json:"digest"`
}

// computeRefs enumerates every cell of s once, single-threaded.
func computeRefs(s *spec, dataDir, catalogDir string) (map[string]*refAnswer, error) {
	out := map[string]*refAnswer{}
	byGraph := map[string][]cell{}
	for _, c := range s.allCells() {
		byGraph[c.Graph] = append(byGraph[c.Graph], c)
	}
	for _, gs := range s.Graphs {
		cells := byGraph[gs.Name]
		if len(cells) == 0 {
			continue
		}
		g, closeG, err := openServed(gs, dataDir, catalogDir)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			agg := jobs.NewAggregate(refTopN)
			o := kplex.NewOptions(c.K, c.Q)
			o.Threads = 1
			o.OnPlex = agg.AddPlex
			if _, err := kplex.Run(context.Background(), g, o); err != nil {
				closeG()
				return nil, fmt.Errorf("reference %s: %w", c.key(), err)
			}
			hist := agg.Histogram
			if hist == nil {
				hist = map[int]int64{}
			}
			out[c.key()] = &refAnswer{Count: agg.Count, MaxSize: agg.MaxSize, Hist: hist, TopK: agg.TopK, Digest: agg.PlexDigest()}
		}
		closeG()
	}
	return out, nil
}

func writeJSONFile(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readJSONFile(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
