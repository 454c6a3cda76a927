package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The serve-mix load model. Users send queries independently, so the
// latency segments are an open loop: arrivals come at a fixed rate in an
// order drawn from the workload seed, and every request is timed from when
// it was due, so a stall also charges the requests queued behind it.
const (
	// refRate is the fixed reference arrival rate of the latency
	// segments, about a fifth of the saturation rate on a 2-core host:
	// queueing stays small, so they measure service time.
	refRate = 300.0
	// maxGenLag: a run whose generator woke later than this at p99 is
	// invalid. Latencies count from the due time, so a late wake-up is
	// still charged to the request; but past this the offered load no
	// longer follows the schedule. The client shares the CPUs with kplexd,
	// so wake-ups of a few ms are normal while a cache miss enumerates on
	// every core.
	maxGenLag = 25 * time.Millisecond
	zipfS     = 0.9
)

// A run is made of rounds. Each round runs one latency segment lasting
// segShare of --seconds, one saturation burst lasting satShare of it, solo
// streams and jobs before and after the burst, and setupReps set-ups of a
// spare server: 900 arrivals per segment at 50 s, so a segment's p99 has
// nine samples beyond it.
const (
	rounds   = 8
	segShare = 0.06
	satShare = 0.04
	// satHeadroom sizes a burst's schedule: it holds enough requests for
	// a server this many times faster than refRate, so a burst does not
	// repeat its requests, which would turn the cold ones into cache hits.
	satHeadroom = 20
)

// The request mix per 100 arrivals; the remainder are cacheable /query
// requests. The shares are assumptions, not measurements of a deployment;
// README.md gives the reason for each. Durable jobs are only in the
// latency segments. An open-loop job is only submitted: a client collects a
// job's result asynchronously, and the job holds an admission slot while
// it runs beside the interactive requests. A saturation burst has no jobs:
// a job's run would outlast the burst that submitted it. Twice a round, one
// client streams each stream cell and runs it as a durable job
// soloRepeats times, for stream_s and job_s.
const (
	streamPer100 = 6
	batchPer100  = 4
	jobPer100    = 1
	soloRepeats  = 3
)

// request is one scheduled request of the serving mix.
type request struct {
	Kind  string
	Cell  cell
	Mode  string
	TopN  int
	Batch batchSweep
}

func (in *instance) send(chk *checker, r request, buf *bytes.Buffer) outcome {
	switch r.Kind {
	case "stream":
		return in.stream(chk, r.Cell, buf)
	case "batch":
		return in.batch(chk, r.Batch, buf)
	case "job":
		return in.submitJob(chk, r.Cell, buf)
	}
	return in.query(chk, r.Cell, r.Mode, r.TopN, buf)
}

// mixGen draws requests of the serving mix. Which requests a schedule
// holds is fixed by its length: query variants in Zipf proportions,
// streams, batches and jobs round-robin over their cells. The seed only orders
// them, so per-kind sums compare between seeds.
type mixGen struct {
	s    *spec
	rng  *rand.Rand
	zipf []float64 // popularity of each query variant, summing to 1
}

func newMixGen(s *spec, rng *rand.Rand) *mixGen {
	g := &mixGen{s: s, rng: rng, zipf: make([]float64, len(s.QueryCells)*len(s.Modes))}
	acc := 0.0
	for i := range g.zipf {
		g.zipf[i] = 1 / math.Pow(float64(i+1), zipfS)
		acc += g.zipf[i]
	}
	for i := range g.zipf {
		g.zipf[i] /= acc
	}
	return g
}

// variant maps a popularity rank to a (cell, mode) pair, spreading the
// modes over the ranks so no mode is uniformly hotter than another.
func (g *mixGen) variant(rank int) request {
	nc := len(g.s.QueryCells)
	c := rank % nc
	m := g.s.Modes[(rank/nc+c)%len(g.s.Modes)]
	return request{Kind: "query", Cell: g.s.QueryCells[c], Mode: m.Mode, TopN: m.TopN}
}

// queries returns n query requests in Zipf proportions (largest
// remainder apportionment), shuffled.
func (g *mixGen) queries(n int) []request {
	counts := make([]int, len(g.zipf))
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, len(g.zipf))
	left := n
	for i, p := range g.zipf {
		x := p * float64(n)
		counts[i] = int(x)
		left -= counts[i]
		rems[i] = rem{i, x - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for _, r := range rems[:left] {
		counts[r.i]++
	}
	out := make([]request, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, g.variant(i))
		}
	}
	g.rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// schedule returns n arrivals at a fixed rate of req/s, jobsPer100 of
// every 100 of them job submits, evenly spaced: with Poisson gaps the p99
// moved by tens of percent between seeds, with even gaps queueing comes
// from the requests alone.
func (g *mixGen) schedule(n int, rate float64, jobsPer100 int) ([]request, []time.Duration) {
	var reqs []request
	for _, k := range []struct {
		kind string
		per  int
	}{{"stream", streamPer100}, {"batch", batchPer100}, {"job", jobsPer100}} {
		for c := 0; c < n*k.per/100; c++ {
			r := request{Kind: k.kind}
			switch k.kind {
			case "stream", "job":
				r.Cell = g.s.StreamCells[c%len(g.s.StreamCells)]
			case "batch":
				r.Batch = g.s.Batches[c%len(g.s.Batches)]
			}
			reqs = append(reqs, r)
		}
	}
	reqs = append(reqs, g.queries(n-len(reqs))...)
	g.rng.Shuffle(n, func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return reqs, due
}

// timed is one open-loop request.
type timed struct {
	outcome
	Latency time.Duration // due to last byte
	Lag     time.Duration // generator lateness: an idle worker woke after due
}

// openLoop sends reqs at their due offsets with one worker per CPU; each
// worker keeps one connection. A request due while every worker is busy
// waits, and that wait is part of its latency. The answers are checked
// once the last one is in, a submitted job is then followed to its result,
// and the bytes allocated before that are returned.
func openLoop(in *instance, chk *checker, reqs []request, due []time.Duration) ([]timed, uint64) {
	out := make([]timed, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				at := start.Add(due[i])
				var lag time.Duration
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					lag = time.Since(at)
				}
				o := in.send(chk, reqs[i], nil)
				out[i] = timed{outcome: o, Latency: o.Start.Add(o.RT).Sub(at), Lag: lag}
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for i := range out {
		out[i].verify()
	}
	return out, after.TotalAlloc - before.TotalAlloc
}

// saturate sends reqs back to back from one worker per CPU until d has
// passed, starting over if it runs out. It returns the answers, checked after the
// burst so the checker's CPU time stays out of it, and the rate of right
// answers the server sustained: failed and wrong requests count as misses.
func saturate(in *instance, chk *checker, reqs []request, d time.Duration) ([]outcome, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Since(start) < d {
				i := int(next.Add(1)-1) % len(reqs)
				mine = append(mine, in.send(chk, reqs[i], nil))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ok := 0
	for i := range out {
		out[i].verify()
		if !out[i].Failed && !out[i].Wrong {
			ok++
		}
	}
	return out, float64(ok) / elapsed.Seconds()
}

// sendAll sends reqs back to back from one worker per CPU (warm-up).
func sendAll(in *instance, chk *checker, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = in.send(chk, reqs[i], &buf)
				out[i].verify()
			}
		}()
	}
	wg.Wait()
	return out
}

// latencies returns the latencies in ms with failed and wrong requests
// counted as +Inf: they miss every limit.
func latencies(ts []timed) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		if t.Failed || t.Wrong {
			xs[i] = math.Inf(1)
		} else {
			xs[i] = ms(t.Latency)
		}
	}
	return xs
}

func outcomes(ts []timed) []outcome {
	out := make([]outcome, len(ts))
	for i, t := range ts {
		out[i] = t.outcome
	}
	return out
}
