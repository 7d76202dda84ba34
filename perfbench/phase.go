package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"authorityflow/internal/server"
)

// counters is one snapshot of the program's exported counters: each
// replica's /v1/stats and /metrics, and the router's /metrics.
type counters struct {
	stats  []server.StatsResponse
	prom   map[string]float64 // replica /metrics, summed over replicas
	router map[string]float64
}

func (b *bench) snapshotCounters() (counters, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	c := counters{prom: make(map[string]float64)}
	for _, rp := range b.f.replicas {
		body, err := replicaGet(hc, rp.url, "/v1/stats")
		if err != nil {
			return c, err
		}
		var st server.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return c, fmt.Errorf("decoding /v1/stats: %w", err)
		}
		c.stats = append(c.stats, st)
		body, err = replicaGet(hc, rp.url, "/metrics")
		if err != nil {
			return c, err
		}
		for k, v := range promValues(body) {
			c.prom[k] += v
		}
	}
	body, err := replicaGet(hc, b.f.url, "/metrics")
	if err != nil {
		return c, err
	}
	c.router = promValues(body)
	return c, nil
}

// delta is the change of the counters the metrics read, summed over
// replicas.
type delta struct {
	resultHits, resultMisses, vectorHits, vectorMisses float64
	evictions, dedup, computes, warmStarts, prewarmed  float64
	solves, warmSolves, iterations                     float64
	answerHits, answerMisses, combines                 float64
	solveSeconds, solveCount, shed, timeouts           float64
	failovers, batchGroupsSum, batchGroupsCount        float64
}

func diff(a, b counters) delta {
	var d delta
	for i := range a.stats {
		x, y := a.stats[i], b.stats[i]
		d.solves += float64(y.Kernel.Solves - x.Kernel.Solves)
		d.warmSolves += float64(y.Kernel.WarmSolves - x.Kernel.WarmSolves)
		d.iterations += float64(y.Kernel.IterationsTotal - x.Kernel.IterationsTotal)
		if x.Cache != nil && y.Cache != nil {
			d.resultHits += float64(y.Cache.Result.Hits - x.Cache.Result.Hits)
			d.resultMisses += float64(y.Cache.Result.Misses - x.Cache.Result.Misses)
			d.vectorHits += float64(y.Cache.Vector.Hits - x.Cache.Vector.Hits)
			d.vectorMisses += float64(y.Cache.Vector.Misses - x.Cache.Vector.Misses)
			d.evictions += float64(y.Cache.Result.Evictions - x.Cache.Result.Evictions + y.Cache.Vector.Evictions - x.Cache.Vector.Evictions)
			d.dedup += float64(y.Cache.SingleflightDedup - x.Cache.SingleflightDedup)
			d.computes += float64(y.Cache.Computes - x.Cache.Computes)
			d.warmStarts += float64(y.Cache.WarmStarts - x.Cache.WarmStarts)
			d.prewarmed += float64(y.Cache.Prewarmed - x.Cache.Prewarmed)
		}
		if x.Profile != nil && y.Profile != nil {
			d.answerHits += float64(y.Profile.AnswerHits - x.Profile.AnswerHits)
			d.answerMisses += float64(y.Profile.AnswerMisses - x.Profile.AnswerMisses)
			d.combines += float64(y.Profile.Combines - x.Profile.Combines)
		}
	}
	d.solveSeconds = b.prom["afq_kernel_solve_seconds_sum"] - a.prom["afq_kernel_solve_seconds_sum"]
	d.solveCount = b.prom["afq_kernel_solve_seconds_count"] - a.prom["afq_kernel_solve_seconds_count"]
	d.shed = b.prom["afq_http_shed_total"] - a.prom["afq_http_shed_total"]
	d.timeouts = b.prom["afq_http_timeout_total"] - a.prom["afq_http_timeout_total"]
	d.failovers = b.router["afq_router_failover_total"] - a.router["afq_router_failover_total"]
	d.batchGroupsSum = b.router["afq_router_batch_groups_sum"] - a.router["afq_router_batch_groups_sum"]
	d.batchGroupsCount = b.router["afq_router_batch_groups_count"] - a.router["afq_router_batch_groups_count"]
	return d
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phaseResult is what the timed phase measured.
type phaseResult struct {
	setupS      float64
	openOps     int
	openDur     time.Duration
	closedDur   time.Duration
	offeredRPS  float64   // open-loop requests sent per second
	capacity    float64   // closed-loop requests per second, median window
	throughput  float64   // closed-loop requests per second over the whole closed loop
	memMB       float64   // median of heaps
	heaps       []float64 // live heap (MB) at the end of each round
	d           delta
	reads       int // queries, profile queries, re-queries and batch items
	requests    int
	allocMB     float64
	gcCycles    float64
	gcPauseMS   float64
	overheadPct float64
	sessions    int
	publishes   int
}

// exec runs one scheduled operation.
func (b *bench) exec(ctx context.Context, o op, due time.Time) {
	if o.session != "" {
		var pub []float64
		if o.publish {
			pub = b.baseline
		}
		b.ru.session(ctx, o.session, due, pub)
		return
	}
	b.ru.read(ctx, o.read, due)
}

// timedRounds is how many open-loop/closed-loop rounds the timed phase
// alternates through.
const timedRounds = 4

// timed runs the open-loop latency phase and the closed-loop capacity
// phase, bracketed by counter snapshots.
func (b *bench) timed(ctx context.Context, seconds time.Duration) (*phaseResult, error) {
	openDur := time.Duration(float64(seconds) * openShare)
	closedDur := seconds - openDur
	ph := &phaseResult{openOps: int(b.spec.rate * openDur.Seconds()), closedDur: closedDur}
	ops := make([]op, ph.openOps)
	for i := range ops {
		ops[i] = b.src.next()
	}
	before, err := b.snapshotCounters()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	b.rec.mu.Lock()
	b.rec.counting = true
	b.rec.mu.Unlock()

	// The open and closed loops alternate over timedRounds rounds, so
	// both sample the whole run rather than one stretch of a machine
	// whose speed drifts. A traced run traces every open-loop round and
	// every other closed-loop round; the closed-loop capacity ratio of
	// untraced to traced rounds is the tracing overhead.
	run := func(due time.Time) { b.exec(ctx, b.src.next(), due) }
	completed := func() int {
		a, f := b.rec.totals()
		return a - f
	}
	var all, off, on []float64
	openReqs, closedReqs := 0, 0
	var forcedCycles, forcedPauseMS float64
	per := len(ops) / timedRounds
	for r := 0; r < timedRounds; r++ {
		chunk := ops[r*per : (r+1)*per]
		if r == timedRounds-1 {
			chunk = ops[r*per:]
		}
		b.rec.mu.Lock()
		b.rec.timing = true
		b.rec.mu.Unlock()
		if b.tr != nil {
			b.tr.on.Store(true)
		}
		a0, _ := b.rec.totals()
		ph.openDur += openLoop(ctx, len(chunk), b.spec.rate, func(i int, due time.Time) { b.exec(ctx, chunk[i], due) })
		a1, _ := b.rec.totals()
		openReqs += a1 - a0
		b.rec.mu.Lock()
		b.rec.timing = false
		b.rec.mu.Unlock()

		traced := b.tr != nil && r%2 == 1
		if b.tr != nil {
			b.tr.on.Store(traced)
		}
		c0 := completed()
		windows := closedLoop(ctx, closedDur/timedRounds, run, completed)
		closedReqs += completed() - c0
		all = append(all, windows...)
		if traced {
			on = append(on, windows...)
		} else {
			off = append(off, windows...)
		}
		mb, cycles, pauseMS := liveHeap()
		ph.heaps = append(ph.heaps, mb)
		forcedCycles += cycles
		forcedPauseMS += pauseMS
	}
	ph.memMB = median(ph.heaps)
	if b.tr != nil {
		b.tr.on.Store(false)
		ph.overheadPct = 100 * (ratio(median(off), median(on)) - 1)
	}
	ph.capacity = median(all)
	ph.offeredRPS = float64(openReqs) / ph.openDur.Seconds()
	ph.throughput = float64(closedReqs) / closedDur.Seconds()

	b.rec.mu.Lock()
	b.rec.counting = false
	for _, k := range []opKind{opQuery, opProfile, opRequery} {
		ph.reads += b.rec.ops[k].attempted
	}
	ph.reads += batchSize * b.rec.ops[opBatch].attempted
	for k := range b.rec.ops {
		ph.requests += b.rec.ops[k].attempted
	}
	ph.sessions = b.rec.ops[opExplain].attempted
	ph.publishes = b.rec.ops[opReformulate].attempted - b.rec.ops[opReformulate].failed +
		b.rec.ops[opPublish].attempted - b.rec.ops[opPublish].failed
	b.rec.mu.Unlock()

	runtime.ReadMemStats(&m1)
	after, err := b.snapshotCounters()
	if err != nil {
		return nil, err
	}
	ph.d = diff(before, after)
	ph.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ph.gcCycles = float64(m1.NumGC-m0.NumGC) - forcedCycles
	ph.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6 - forcedPauseMS
	return ph, nil
}

// liveHeap forces two collections (sync.Pool contents survive the
// first) and returns the live heap in MB, with the cycles and pause
// time the two collections took, so they can be left out of the
// program's own GC figures.
func liveHeap() (mb, cycles, pauseMS float64) {
	var a, z runtime.MemStats
	runtime.ReadMemStats(&a)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&z)
	return float64(z.HeapAlloc) / (1 << 20), float64(z.NumGC - a.NumGC), float64(z.PauseTotalNs-a.PauseTotalNs) / 1e6
}

// structural returns the workload assertions that failed: a run that
// misses them measured the wrong thing and is invalid, not slow.
func (b *bench) structural(ph *phaseResult) []string {
	var bad []string
	hit := ratio(ph.d.resultHits, ph.d.resultHits+ph.d.resultMisses)
	switch {
	case b.spec.name == "hot_read":
		if hit < 0.95 {
			bad = append(bad, fmt.Sprintf("hot_read result hit ratio %.3f < 0.95", hit))
		}
	case b.spec.name == "cold_read":
		if hit > 0.05 {
			bad = append(bad, fmt.Sprintf("cold_read result hit ratio %.3f > 0.05", hit))
		}
		// A batch's queries are solved as one kernel panel, so the
		// fixpoints are counted by the cache's computes (one per panel
		// column), and every batch item counts as a read.
		if ph.d.computes < float64(ph.reads) {
			bad = append(bad, fmt.Sprintf("cold_read computed %.0f fixpoints for %d reads", ph.d.computes, ph.reads))
		}
	case b.spec.sessions:
		if ph.publishes < ph.sessions || ph.sessions == 0 {
			bad = append(bad, fmt.Sprintf("feedback_session published %d times in %d sessions", ph.publishes, ph.sessions))
		}
	}
	return bad
}

// postRunChecks verifies feedback_session's final quiescent state.
func (b *bench) postRunChecks(ctx context.Context) []string {
	var bad []string
	hc := &http.Client{Timeout: 30 * time.Second}
	var first server.RatesResponse
	for i, rp := range b.f.replicas {
		body, err := replicaGet(hc, rp.url, "/v1/rates")
		if err != nil {
			return append(bad, err.Error())
		}
		var rr server.RatesResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return append(bad, "decoding /v1/rates: "+err.Error())
		}
		if i == 0 {
			first = rr
			continue
		}
		if rr.Version != first.Version {
			bad = append(bad, fmt.Sprintf("replica %d at rates version %d, replica 0 at %d", i, rr.Version, first.Version))
		}
		if len(rr.Vector) != len(first.Vector) {
			bad = append(bad, "rate vectors differ in length")
			continue
		}
		for j := range rr.Vector {
			if math.Float64bits(rr.Vector[j]) != math.Float64bits(first.Vector[j]) {
				bad = append(bad, fmt.Sprintf("replica %d rate %d = %v, replica 0 has %v", i, j, rr.Vector[j], first.Vector[j]))
				break
			}
		}
	}
	if len(bad) > 0 {
		return bad
	}
	b.ref.recordRates(first.Version, first.Vector)

	// Fresh two- and three-term queries miss every cache, so each is one
	// solve at the final rates and must match the reference built at that
	// vector in the exact class. A replica's solves start from its generation's
	// global PageRank, computed once under whatever rates that replica
	// held at its first solve — on a replica that first solved after a
	// publish, not the baseline. The reference therefore starts from the
	// serving replica's own start vector: the fixpoint does not depend
	// on it, but bit-for-bit agreement does.
	fresh := newColdSource(b.seed+101, b.queryTerms)
	var probe sample
	for i := 0; i < 8; i++ {
		it := fresh.fresh()
		it.mode = "authority"
		r := b.ru.c.do(ctx, opQuery, time.Now(), http.MethodGet, queryPath(it, ""), nil)
		rp := b.f.byURL[r.replica]
		if r.status != http.StatusOK || rp == nil {
			bad = append(bad, fmt.Sprintf("fresh query %q: status %d from %q", it.q, r.status, r.replica))
			continue
		}
		a, ok := b.ru.answer("fresh query "+it.q, r)
		if !ok {
			continue
		}
		if a.Version != first.Version && !b.ref.servedSameRates(a.Version, first.Version) {
			bad = append(bad, fmt.Sprintf("fresh query %q answered at version %d, fleet at %d", it.q, a.Version, first.Version))
		}
		probe = sample{class: classExact, it: it, version: a.Version,
			results: a.Results, init: rp.srv.Engine().GlobalRank()}
		b.rec.addSample(probe)
	}
	if probe.results == nil {
		return bad
	}

	// A repeated explain or audit on one replica is byte-identical.
	q, a := url.QueryEscape(probe.it.q), probe.results[0].Node
	for _, path := range []string{
		fmt.Sprintf("/v1/explain?q=%s&target=%d", q, a),
		fmt.Sprintf("/v1/audit?q=%s&target=%d&budget=%d", q, a, auditBudget),
	} {
		x, err1 := replicaGet(hc, b.f.replicas[0].url, path)
		y, err2 := replicaGet(hc, b.f.replicas[0].url, path)
		switch {
		case err1 != nil || err2 != nil:
			bad = append(bad, fmt.Sprintf("repeat %s: %v %v", path, err1, err2))
		case !bytes.Equal(x, y):
			bad = append(bad, fmt.Sprintf("repeat %s: bodies differ (%d vs %d bytes)", path, len(x), len(y)))
		}
	}
	return bad
}
