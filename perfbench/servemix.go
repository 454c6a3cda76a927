package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"
)

// serveMix sets kplexd up, warms its caches, and then runs rounds of an
// open-loop latency segment at refRate, solo streams and durable jobs from
// one client, a saturation burst, solo streams and jobs again, and
// set-ups of spare servers.
func (b *bench) serveMix() error {
	var setups, loads []float64
	// setUp sets a server up setupReps times and keeps the last one.
	setUp := func() (*instance, error) {
		var in *instance
		for i := 0; i < setupReps; i++ {
			if in != nil {
				in.close()
			}
			var setup, load time.Duration
			var err error
			if in, setup, load, err = b.start(); err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
			loads = append(loads, ms(load))
		}
		return in, nil
	}
	in, err := setUp()
	if err != nil {
		return err
	}
	defer in.close()

	gen := newMixGen(b.s, rand.New(rand.NewSource(b.cfg.Seed)))
	b.rep.count(sendAll(in, b.chk, gen.queries(2*len(gen.zipf)))...)

	// The host's speed drifts over seconds, so every metric samples the
	// whole run rather than one stretch of it, and each is a median over
	// the rounds (or, for stream_s and job_s, over every solo request of a
	// cell; for setup_s, over every set-up), so one disturbed stretch does
	// not move it.
	//
	// Every latency segment holds the same requests in a new order. A
	// traced run traces every other segment.
	//
	// A saturation burst sends the segment mix without jobs from one
	// client per CPU, back to back: the rate it sustains is the most the
	// server can take. Its requests are checked after the burst.
	//
	// The solo streams and jobs come from one client on the warm server.
	// stream_s and job_s sum each cell's median round trip, so one slow
	// fsync or one disturbed stream does not move them.
	//
	// A traced run sums /metrics and the job WALs before and after each
	// latency segment: the per-layer metrics explain the segments'
	// latencies, not the bursts' overload.
	nSeg := max(100, int(refRate*b.cfg.Seconds*segShare)) // at least one job
	satDur := time.Duration(satShare * b.cfg.Seconds * float64(time.Second))
	var phase []timed
	var segP50, segP99, segQuery, segAlloc, satRate, latU, latT []float64
	var soloOuts []outcome
	m0, m1 := map[string]float64{}, map[string]float64{}
	streamRT := make([][]float64, len(b.s.StreamCells))
	jobRT := make([][]float64, len(b.s.StreamCells))
	solo := func() {
		runtime.GC()
		for ci, c := range b.s.StreamCells {
			for range soloRepeats {
				so := in.stream(b.chk, c, &b.buf)
				so.verify()
				jo := in.job(b.chk, c, &b.buf)
				jo.verify()
				soloOuts = append(soloOuts, so, jo)
				streamRT[ci] = append(streamRT[ci], so.RT.Seconds())
				jobRT[ci] = append(jobRT[ci], jo.RT.Seconds())
			}
		}
	}
	for round := 0; round < rounds; round++ {
		reqs, due := gen.schedule(nSeg, refRate, jobPer100)
		traced := b.cfg.Trace && round%2 == 1
		if traced {
			in.tr = b.tr
		}
		var wal0 int64
		if b.cfg.Trace {
			if err := in.scrapeInto(m0); err != nil {
				return err
			}
			wal0 = walBytes(in.jobsDir)
		}
		ts, alloc := openLoop(in, b.chk, reqs, due)
		in.tr = nil
		if b.cfg.Trace {
			if err := in.scrapeInto(m1); err != nil {
				return err
			}
			b.walBytes += walBytes(in.jobsDir) - wal0
		}
		k := summarize(outcomes(ts))
		lat := latencies(ts)
		segP50 = append(segP50, quantile(lat, 0.5))
		segP99 = append(segP99, quantile(lat, 0.99))
		segQuery = append(segQuery, k.sum["query"].Seconds())
		segAlloc = append(segAlloc, float64(alloc)/(1<<20))
		if traced {
			latT = append(latT, latencies(ts)...)
		} else {
			latU = append(latU, latencies(ts)...)
		}
		phase = append(phase, ts...)
		solo()

		runtime.GC()
		sreqs, _ := gen.schedule(int(satHeadroom*refRate*satDur.Seconds()), refRate, 0)
		souts, rate := saturate(in, b.chk, sreqs, satDur)
		b.rep.count(souts...)
		satRate = append(satRate, rate)
		solo()

		spare, err := setUp()
		if err != nil {
			return err
		}
		spare.close()
	}
	outs := outcomes(phase)
	var genLag []float64
	for _, t := range phase {
		genLag = append(genLag, ms(t.Lag))
	}
	b.rep.count(outs...)
	lat := latencies(phase)
	lagP99 := quantile(genLag, 0.99)
	var streamS, jobS float64
	for ci := range b.s.StreamCells {
		streamS += median(streamRT[ci])
		jobS += median(jobRT[ci])
	}
	b.rep.count(soloOuts...)
	k := summarize(outs)
	for _, kind := range []string{"query", "stream", "batch", "submit"} {
		var rt []float64
		for _, o := range outs {
			if o.Kind == kind {
				rt = append(rt, ms(o.RT))
			}
		}
		if len(rt) > 0 {
			b.note("%-6s n=%4d round trip p50 %.2f ms, p99 %.2f ms, max %.2f ms, sum %.0f ms", kind, len(rt),
				quantile(rt, 0.5), quantile(rt, 0.99), quantile(rt, 1), sum(rt))
		}
	}
	b.note("open loop at %.0f req/s, %d workers/connections (nproc %d), %d latency samples, generator lag p99 %.3f ms",
		refRate, runtime.NumCPU(), runtime.NumCPU(), len(lat), lagP99)
	b.note("latency segments: %d query, %d stream, %d batch, %d job submits; %d solo streams and jobs",
		k.n["query"], k.n["stream"], k.n["batch"], k.n["submit"], len(soloOuts))
	b.note("saturation bursts, %d clients: %s req/s", runtime.NumCPU(), fmtRates(satRate))
	if b.cfg.Trace {
		b.serverDeltas(m0, m1, k.n["submit"], b.walBytes)
		b.rep.set("server.load_ms", median(loads), "ms")
		b.rep.set("server.hit_ms", medianOr0(k.hitRT), "ms")
		b.rep.set("server.batch_ms", medianOr0(k.batchRT), "ms")
		b.rep.set("obs.trace_overhead_pct", 100*(median(latT)/median(latU)-1), "%")
		b.rep.set("bench.gen_lag_p99_ms", lagP99, "ms")
		b.rep.set("bench.connections", float64(in.conns.Load()), "count")
		b.rep.set("bench.lat_samples", float64(len(lat)), "count")
		return nil
	}
	if lagP99 > ms(maxGenLag) {
		return fmt.Errorf("%w: the open-loop generator woke %.2f ms late at p99 (limit %.0f ms); latencies not reported",
			errInvalid, lagP99, ms(maxGenLag))
	}
	b.rep.set("setup_s", median(setups), "s")
	b.rep.set("lat_p50_ms", median(segP50), "ms")
	b.rep.set("lat_p99_ms", median(segP99), "ms")
	b.rep.set("max_qps", median(satRate), "req/s")
	b.rep.set("query_s", median(segQuery), "s")
	b.rep.set("stream_s", streamS, "s")
	b.rep.set("job_s", jobS, "s")
	b.rep.set("alloc_mib", median(segAlloc), "MiB")
	return nil
}

func fmtRates(rates []float64) string {
	var parts []string
	for _, r := range rates {
		parts = append(parts, fmt.Sprintf("%.0f", r))
	}
	return strings.Join(parts, ", ")
}
