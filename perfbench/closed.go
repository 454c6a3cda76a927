package main

import (
	"runtime"
	"time"
)

// passOut is one pass of a closed-loop workload: a fresh kplexd, then
// every cell of the workload asked once by a single client.
type passOut struct {
	setup, load time.Duration
	outs        []outcome
	alloc       float64 // bytes allocated by the pass, answer checking excluded
	conns       int64
}

// closedLoop runs passes until the measured time is used, each against a
// fresh server so no pass hits the result cache or a prologue an earlier
// pass left behind. The traced run alternates untraced and traced passes;
// their difference is the tracing overhead.
func (b *bench) closedLoop() error {
	var setups, loads, queryS, streamS, jobS, p50, p99, qps, allocs []float64
	var rtUntraced, rtTraced []float64
	var traceOuts []outcome
	var conns int64
	// /metrics summed before and after each traced pass.
	m0, m1 := map[string]float64{}, map[string]float64{}
	// A traced run leaves half its time to the in-process replay.
	minPasses, budget := 1, b.cfg.Seconds
	if b.cfg.Trace {
		minPasses, budget = 2, b.cfg.Seconds/2
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start).Seconds() < budget; pass++ {
		traced := b.cfg.Trace && pass%2 == 1
		p, err := b.closedPass(traced, m0, m1)
		if err != nil {
			return err
		}
		b.rep.count(p.outs...)
		conns = max(conns, p.conns)
		setups = append(setups, p.setup.Seconds())
		loads = append(loads, ms(p.load))
		k := summarize(p.outs)
		total := k.sum["query"] + k.sum["stream"] + k.sum["job"]
		queryS = append(queryS, k.sum["query"].Seconds())
		streamS = append(streamS, k.sum["stream"].Seconds())
		jobS = append(jobS, k.sum["job"].Seconds())
		var rts []float64
		for _, o := range p.outs {
			rts = append(rts, ms(o.RT))
		}
		p50 = append(p50, quantile(append([]float64(nil), rts...), 0.5))
		p99 = append(p99, quantile(rts, 0.99))
		qps = append(qps, float64(len(p.outs))/total.Seconds())
		allocs = append(allocs, p.alloc/(1<<20))
		if traced {
			rtTraced = append(rtTraced, total.Seconds())
			traceOuts = append(traceOuts, p.outs...)
		} else {
			rtUntraced = append(rtUntraced, total.Seconds())
		}
	}
	if b.cfg.Trace {
		k := summarize(traceOuts)
		b.serverDeltas(m0, m1, k.n["job"], b.walBytes)
		b.rep.set("server.load_ms", median(loads), "ms")
		b.rep.set("server.hit_ms", medianOr0(k.hitRT), "ms")
		b.rep.set("server.batch_ms", medianOr0(k.batchRT), "ms")
		b.rep.set("obs.trace_overhead_pct", 100*(median(rtTraced)/median(rtUntraced)-1), "%")
		b.rep.set("bench.gen_lag_p99_ms", 0, "ms")
		b.rep.set("bench.connections", float64(conns), "count")
		b.rep.set("bench.lat_samples", float64(len(traceOuts)), "count")
		return nil
	}
	b.rep.set("setup_s", median(setups), "s")
	b.rep.set("query_s", median(queryS), "s")
	b.rep.set("stream_s", median(streamS), "s")
	b.rep.set("job_s", median(jobS), "s")
	b.rep.set("lat_p50_ms", median(p50), "ms")
	b.rep.set("lat_p99_ms", median(p99), "ms")
	b.rep.set("max_qps", median(qps), "req/s")
	b.rep.set("alloc_mib", median(allocs), "MiB")
	b.note("closed loop, 1 client: %d passes of %d requests (lat_p50/p99 per pass, medians over passes); connections %d",
		len(setups), b.rep.attempted/len(setups), conns)
	return nil
}

// closedPass sets a fresh kplexd up and asks every cell once: the sweep's
// /query cells, then each deep cell as /query count (deep-search only),
// full /stream and durable /jobs job. Traced passes also add the
// /metrics scrapes before and after the requests to m0 and m1.
func (b *bench) closedPass(traced bool, m0, m1 map[string]float64) (*passOut, error) {
	in, setup, load, err := b.start()
	if err != nil {
		return nil, err
	}
	defer in.close()
	p := &passOut{setup: setup, load: load}
	if traced {
		in.tr = b.tr
		if err := in.scrapeInto(m0); err != nil {
			return nil, err
		}
	}
	// Each answer is checked before the next request reuses the read
	// buffer; the bytes the checks allocate are left out of alloc_mib.
	var before, after, c0, c1 runtime.MemStats
	var checkAlloc uint64
	ask := func(o outcome) {
		runtime.ReadMemStats(&c0)
		o.verify()
		runtime.ReadMemStats(&c1)
		checkAlloc += c1.TotalAlloc - c0.TotalAlloc
		p.outs = append(p.outs, o)
	}
	runtime.ReadMemStats(&before)
	for _, c := range b.s.Sweep {
		ask(in.query(b.chk, c.cell, c.Mode, 0, &b.buf))
	}
	for _, c := range b.s.DeepCells {
		if len(b.s.Sweep) == 0 {
			ask(in.query(b.chk, c, "count", 0, &b.buf))
		}
		ask(in.stream(b.chk, c, &b.buf))
		ask(in.job(b.chk, c, &b.buf))
	}
	runtime.ReadMemStats(&after)
	p.alloc = float64(after.TotalAlloc - before.TotalAlloc - checkAlloc)
	p.conns = in.conns.Load()
	if traced {
		in.tr = nil
		if err := in.scrapeInto(m1); err != nil {
			return nil, err
		}
		b.walBytes += walBytes(in.jobsDir)
	}
	return p, nil
}
