package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"authorityflow/internal/core"
	"authorityflow/internal/ir"
	"authorityflow/internal/storage"
)

// lat returns the open-loop latencies of the given ops.
func (b *bench) lat(kinds ...opKind) []float64 {
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	var out []float64
	for _, k := range kinds {
		out = append(out, b.rec.ops[k].lat...)
	}
	return out
}

// secondary returns the latencies of the workload's secondary request
// class: batches on the read workloads, and on feedback_session the
// feedback round of each session (explain, audit and reformulate, timed
// by the session itself).
func (b *bench) secondary() []float64 {
	if !b.spec.sessions {
		return b.lat(opBatch)
	}
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	return append([]float64(nil), b.rec.rounds...)
}

// endToEnd builds the metrics of an untraced run.
func (b *bench) endToEnd(ph *phaseResult) map[string]metric {
	return map[string]metric{
		"setup_s":          {ph.setupS, "s"},
		"query_p50_ms":     {median(b.lat(opQuery)), "ms"},
		"secondary_p50_ms": {median(b.secondary()), "ms"},
		"capacity_rps":     {ph.capacity, "1/s"},
		"mem_mb":           {ph.memMB, "MB"},
	}
}

// report prints the run record and every end-to-end metric BENCHMARK.md
// names (with sample counts) as human-readable lines before the JSON.
func (b *bench) report(ph *phaseResult, post, assertions []string, traced bool) {
	p := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	p("# perfbench workload=%s seed=%d trace=%v", b.spec.name, b.seed, traced)
	p("# machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	p("# corpus: dblptop scale %.2f: %d nodes, %d arcs, %d terms; snapshot %s", b.spec.scale, b.nodes, b.arcs, b.vocab, b.snapPath)
	p("# load: open loop %d ops at %.1f/s over %.2fs (2 workers); closed loop 2 clients for %.2fs",
		ph.openOps, b.spec.rate, ph.openDur.Seconds(), ph.closedDur.Seconds())
	p("# load: offered %.2f requests/s, %.1f%% of this run's capacity_rps (target %.0f%%)",
		ph.offeredRPS, 100*ratio(ph.offeredRPS, ph.capacity), 100*offeredShare)
	pct := func(name string, kinds []opKind, ps ...float64) {
		xs := b.lat(kinds...)
		for _, q := range ps {
			if beyond(len(xs), q) < 10 {
				p("%s_p%g_ms n/a ms (n=%d: fewer than 10 samples beyond p%g)", name, q, len(xs), q)
				continue
			}
			p("%s_p%g_ms %.4f ms (n=%d)", name, q, percentile(xs, q), len(xs))
		}
	}
	p("setup_s %.4f s", ph.setupS)
	pct("query", []opKind{opQuery}, 50, 99)
	pct("profile_query", []opKind{opProfile}, 50, 90)
	pct("batch", []opKind{opBatch}, 50, 90)
	pct("explain", []opKind{opExplain}, 50, 90)
	pct("audit", []opKind{opAudit}, 50, 90)
	pct("reformulate", []opKind{opReformulate}, 50, 90)
	pct("requery", []opKind{opRequery}, 50, 90)
	sec := b.secondary()
	p("secondary_p50_ms %.4f ms (n=%d)", median(sec), len(sec))
	p("capacity_rps %.4f 1/s (median window; %.4f/s over the whole %.2fs)", ph.capacity, ph.throughput, ph.closedDur.Seconds())
	attempted, failed := b.rec.totals()
	p("fail_ratio %.6f (failed %d of %d attempted)", ratio(float64(failed), float64(attempted)), failed, attempted)
	p("mem_mb %.4f MB (median of the rounds' %s)", ph.memMB, fmtList(ph.heaps))
	b.rec.mu.Lock()
	for k, st := range b.rec.ops {
		if st.attempted == 0 {
			continue
		}
		codes := make([]string, 0, len(st.byStatus))
		for c, n := range st.byStatus {
			codes = append(codes, fmt.Sprintf("%d:%d", c, n))
		}
		sort.Strings(codes)
		p("# op %-11s attempted %d succeeded %d failed %d status %s latency samples %d",
			opNames[k], st.attempted, st.attempted-st.failed, st.failed, strings.Join(codes, ","), len(st.lat))
	}
	late := append([]float64(nil), b.rec.late...)
	b.rec.mu.Unlock()
	p("# generator lateness p50 %.3f ms p99 %.3f ms max %.3f ms", percentile(late, 50), percentile(late, 99), percentile(late, 100))
	p("# check: reference checks took %.2fs", b.checkDur.Seconds())
	p("# check: %d sampled answers checked against the reference (%d unresolved; %d more were bit-identical repeats of a checked answer), %d wrong, check.bitwise_mismatches %d; convergence ε=%.4g (contraction %.3f), largest |served-ref|/ε %.3g",
		b.ref.checked, b.ref.unresolved, b.ru.repeats, b.ref.failed, b.ref.bitwise, b.eps, b.contract, b.ref.maxEpsShare)
	p("# answers labelled with an older rates version that served identical rates: %d", b.ru.c.relabels.Load())
	p("# cache result hit ratio %.4f, fixpoints computed per read %.3f (%.0f computes, %.0f kernel executions, %d reads counting each batch item)",
		ratio(ph.d.resultHits, ph.d.resultHits+ph.d.resultMisses), ratio(ph.d.computes, float64(ph.reads)), ph.d.computes, ph.d.solves, ph.reads)
	if traced {
		p("# tracing overhead %.2f%% (closed-loop capacity with spans off vs on)", ph.overheadPct)
	}
	p("# run wall time %.1fs", time.Since(b.start).Seconds())
	for _, s := range b.rec.problems {
		fmt.Fprintln(os.Stderr, "wrong answer:", s)
	}
	for _, s := range b.ref.problems {
		fmt.Fprintln(os.Stderr, "reference mismatch:", s)
	}
	for _, s := range post {
		fmt.Fprintln(os.Stderr, "post-run check failed:", s)
	}
	for _, s := range assertions {
		fmt.Fprintln(os.Stderr, "structural assertion failed:", s)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, ", ")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the checkout has
// one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: "))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// ---- per-layer metrics ----

// probeSamples is how many of the workload's own operations the layer
// probe replays through each layer's public functions.
const probeSamples = 6

// perLayer runs the traced run's probes and computes every per-layer
// metric.
func (b *bench) perLayer(ctx context.Context, ph *phaseResult) map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Requests of op types the workload does not send still need server
	// and router spans: send a few of each through the router.
	b.tr.on.Store(true)
	b.probeRequests(ctx)
	b.tr.on.Store(false)
	spans := b.tr.snapshot()

	// Router: hop = router span minus its upstream span, joined by the
	// client-set request ID the router forwards.
	type pair struct{ router, up *span }
	byID := make(map[string]*pair)
	var routerReqs, upBytes float64
	for i := range spans {
		s := &spans[i]
		switch s.layer {
		case "router":
			if !apiPath(s.path) {
				continue
			}
			routerReqs++
			pr := byID[s.id]
			if pr == nil {
				pr = &pair{}
				byID[s.id] = pr
			}
			pr.router = s
		case "upstream":
			upBytes += float64(s.bytes)
			if s.id == "" {
				continue
			}
			pr := byID[s.id]
			if pr == nil {
				pr = &pair{}
				byID[s.id] = pr
			}
			if pr.up == nil || s.path == "/v1/reformulate" {
				pr.up = s
			}
		}
	}
	var hop, up, fanout []float64
	for _, pr := range byID {
		if pr.router == nil || pr.up == nil {
			continue
		}
		switch pr.router.path {
		case "/v1/query":
			if strings.Contains(pr.router.query, "profile=") {
				continue
			}
			hop = append(hop, pr.router.dur()-pr.up.dur())
			up = append(up, pr.up.dur())
		case "/v1/reformulate":
			fanout = append(fanout, ms(pr.router.end.Sub(pr.up.end)))
		}
	}
	put("router.hop_ms_p50", median(hop), "ms")
	put("router.upstream_ms_p50", median(up), "ms")
	put("router.write_fanout_ms_p50", median(fanout), "ms")
	put("router.proxied_bytes_per_req", ratio(upBytes, routerReqs), "bytes")
	put("router.batch_groups_mean", ratio(ph.d.batchGroupsSum, ph.d.batchGroupsCount), "count")
	put("router.failovers", ph.d.failovers, "count")

	// Server: handler time and response size per op on the replicas.
	handler := make(map[string][]float64)
	size := make(map[string][]float64)
	for _, s := range spans {
		if !strings.HasPrefix(s.layer, "replica") {
			continue
		}
		op := serverOp(s.path)
		if op == "" {
			continue
		}
		handler[op] = append(handler[op], s.dur())
		size[op] = append(size[op], float64(s.bytes))
	}
	for _, op := range []string{"query", "batch", "explain", "audit", "reformulate"} {
		put("server.handler_ms_p50."+op, median(handler[op]), "ms")
		put("server.resp_bytes_mean."+op, mean(size[op]), "bytes")
	}
	put("server.shed", ph.d.shed, "count")
	put("server.timeouts", ph.d.timeouts, "count")

	// Cache, core, rank and profile counters over the timed phase.
	d := ph.d
	reads := float64(ph.reads)
	put("cache.result_hit_ratio", ratio(d.resultHits, d.resultHits+d.resultMisses), "ratio")
	put("cache.vector_hit_ratio", ratio(d.vectorHits, d.vectorHits+d.vectorMisses), "ratio")
	put("cache.computes_per_read", ratio(d.computes, reads), "ratio")
	put("cache.singleflight_dedup", d.dedup, "count")
	put("cache.evictions", d.evictions, "count")
	put("cache.warm_starts", d.warmStarts, "count")
	put("cache.prewarmed", d.prewarmed, "count")
	put("core.solves_per_read", ratio(d.solves, reads), "ratio")
	put("rank.iterations_per_solve", ratio(d.iterations, d.solves), "count")
	put("rank.solve_ms_mean", 1000*ratio(d.solveSeconds, d.solveCount), "ms")
	put("rank.arc_visits_per_s", ratio(d.iterations*float64(b.arcs), d.solveSeconds), "1/s")
	put("rank.warm_solve_share", ratio(d.warmSolves, d.solves), "ratio")
	put("profile.answer_hit_ratio", ratio(d.answerHits, d.answerHits+d.answerMisses), "ratio")
	put("profile.combines", d.combines, "count")

	// Runtime and generator.
	kreq := float64(ph.requests) / 1000
	put("runtime.alloc_mb_per_kreq", ratio(ph.allocMB, kreq), "MB")
	put("runtime.gc_cycles_per_kreq", ratio(ph.gcCycles, kreq), "count")
	put("runtime.gc_pause_ms_total", ph.gcPauseMS, "ms")
	b.rec.mu.Lock()
	put("bench.late_ms_p99", percentile(b.rec.late, 99), "ms")
	b.rec.mu.Unlock()
	put("bench.trace_overhead_pct", ph.overheadPct, "%")
	put("check.bitwise_mismatches", float64(b.ref.bitwise), "count")
	put("check.sampled", float64(b.ref.checked), "count")

	b.layerProbe(ctx, put)
	return m
}

func apiPath(p string) bool {
	return strings.HasPrefix(p, "/v1/") && p != "/v1/stats" && p != "/v1/healthz"
}

func serverOp(path string) string {
	switch path {
	case "/v1/query":
		return "query"
	case "/v1/query/batch":
		return "batch"
	case "/v1/explain":
		return "explain"
	case "/v1/audit":
		return "audit"
	case "/v1/reformulate":
		return "reformulate"
	}
	return ""
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// probeItems returns a seeded sample of the workload's own authority
// queries (the explainable mode) for the probes.
func (b *bench) probeItems() []item {
	var out []item
	switch {
	case b.hot != nil:
		for _, k := range b.hot.keys {
			if k.mode == "authority" && len(out) < probeSamples {
				out = append(out, k)
			}
		}
	case b.spec.sessions:
		for _, q := range b.sessions.pool[:probeSamples] {
			out = append(out, item{q: q, mode: "authority"})
		}
	default:
		fresh := newColdSource(b.seed+202, b.queryTerms)
		for len(out) < probeSamples {
			it := fresh.fresh()
			it.mode = "authority"
			out = append(out, it)
		}
	}
	return out
}

// probeRequests sends one batch and, per probe item, a query, explain,
// audit and reformulate through the router, so every op has server
// spans on every workload. It runs after the timed phase and its checks.
func (b *bench) probeRequests(ctx context.Context) {
	items := b.probeItems()
	b.ru.read(ctx, readOp{kind: opBatch, items: append(append([]item(nil), items...), items[:2]...)}, time.Now())
	for _, it := range items[:3] {
		b.ru.session(ctx, it.q, time.Now(), nil)
	}
}

// layerProbe times calls into each layer's public functions on the
// probe sample, against the reference engine (same snapshot and
// configuration as the replicas) and one replica's serving cache.
func (b *bench) layerProbe(ctx context.Context, put func(string, float64, string)) {
	items := b.probeItems()
	pin := b.ref.eng.Pin()
	ix := pin.Corpus().Index()
	g := pin.Corpus().Graph()

	var baseMS, postings, rankMS, explainMS, nodes, auditMS, arcs, refMS, jsonMS, lookupUS []float64
	ce := b.f.replicas[0].srv.Cache()
	rpin := b.f.replicas[0].srv.Engine().Pin()
	for _, it := range items {
		q := ir.ParseQuery(it.q)
		t0 := time.Now()
		base := ix.BaseSet(q)
		baseMS = append(baseMS, ms(time.Since(t0)))
		n := 0
		for _, t := range q.Terms() {
			n += len(ix.Postings(t))
		}
		postings = append(postings, float64(n))
		_ = base

		t0 = time.Now()
		res, err := pin.RankModeCtx(ctx, q, core.ModeAuthority)
		if err != nil {
			continue
		}
		rankMS = append(rankMS, ms(time.Since(t0)))

		if _, err := ce.QueryModePinnedCtx(ctx, rpin, q, topK, core.ModeAuthority); err == nil {
			t0 = time.Now()
			_, _ = ce.QueryModePinnedCtx(ctx, rpin, q, topK, core.ModeAuthority)
			lookupUS = append(lookupUS, 1000*ms(time.Since(t0)))
		}

		target := res.TopK(1)[0].Node
		t0 = time.Now()
		sg, err := pin.ExplainModeCtx(ctx, core.ModeAuthority, res, target, core.DefaultExplain())
		if err != nil {
			b.ref.eng.Release(res)
			continue
		}
		explainMS = append(explainMS, ms(time.Since(t0)))
		nodes = append(nodes, float64(len(sg.Nodes)))

		t0 = time.Now()
		a, err := pin.AuditCtx(ctx, core.ModeAuthority, res, target, core.AuditOptions{Budget: auditBudget})
		if err == nil {
			auditMS = append(auditMS, ms(time.Since(t0)))
			arcs = append(arcs, float64(a.TotalArcs))
		}

		t0 = time.Now()
		if _, err := pin.ReformulateWeightedCtx(ctx, q, []*core.Subgraph{sg}, []float64{1}, core.StructureOnly()); err == nil {
			refMS = append(refMS, ms(time.Since(t0)))
		}

		t0 = time.Now()
		_ = storage.BuildSubgraphJSON(g, sg)
		jsonMS = append(jsonMS, ms(time.Since(t0)))
		b.ref.eng.Release(res)
	}
	put("ir.baseset_ms_p50", median(baseMS), "ms")
	put("ir.postings_per_query", mean(postings), "count")
	put("core.rank_ms_p50", median(rankMS), "ms")
	put("cache.lookup_us_p50", median(lookupUS), "us")
	put("core.explain_ms_p50", median(explainMS), "ms")
	put("core.subgraph_nodes_mean", mean(nodes), "count")
	put("core.audit_ms_p50", median(auditMS), "ms")
	put("core.audit_arcs_mean", mean(arcs), "count")
	put("core.reformulate_ms_p50", median(refMS), "ms")
	put("storage.subgraph_json_ms_p50", median(jsonMS), "ms")

	var loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := storage.ReadSnapshotFile(b.snapPath); err == nil {
			loads = append(loads, ms(time.Since(t0)))
		}
	}
	put("storage.snapshot_load_ms", median(loads), "ms")
	if st, err := os.Stat(b.snapPath); err == nil {
		put("storage.snapshot_mb", float64(st.Size())/(1<<20), "MB")
	}
}
