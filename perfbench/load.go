package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authorityflow/internal/router"
	"authorityflow/internal/server"
)

// opKind is the request type the generator counts and times.
type opKind int

const (
	opQuery opKind = iota
	opBatch
	opProfile
	opExplain
	opAudit
	opReformulate
	opPublish
	opRequery
	numOps
)

var opNames = [numOps]string{"query", "batch", "profile", "explain", "audit", "reformulate", "publish", "requery"}

// item is one ranked read: a query string under a ranking mode.
type item struct {
	q    string
	mode string
}

// readOp is one read request of hot_read or cold_read.
type readOp struct {
	kind    opKind // opQuery, opBatch or opProfile
	items   []item
	profile string
}

// topK is the k of every read the generator sends.
const topK = 10

// batchSize is the number of queries per /v1/query/batch request.
const batchSize = 8

// sample is a served answer kept for the reference check after the
// phase.
type sample struct {
	class   checkClass
	it      item
	profile string
	version uint64
	results []resultJSON
	// init, when set, is the start vector of the serving replica's
	// solve; the reference then starts from it too.
	init []float64
}

// queryJSON mirrors the fields of server.QueryResponse the checker reads.
type queryJSON struct {
	Version    uint64       `json:"version"`
	Generation uint64       `json:"generation"`
	Results    []resultJSON `json:"results"`
}

type resultJSON struct {
	Node  int64   `json:"node"`
	Score float64 `json:"score"`
}

// latencyStats accumulates one op type's counts and open-loop latencies.
type latencyStats struct {
	attempted, failed int
	byStatus          map[int]int // 0 = transport error
	lat               []float64   // ms from due time, open-loop phase only
}

// recorder collects the generator's per-op accounting. It is shared by
// the generator's workers.
type recorder struct {
	mu       sync.Mutex
	ops      [numOps]latencyStats
	late     []float64 // ms the generator started a request after its due time
	rounds   []float64 // ms per feedback round (explain due → reformulate answered), open-loop phase only
	timing   bool      // record latencies (open-loop phase)
	counting bool      // count attempts (timed phases)
	problems []string
	nProblem int
	samples  []sample
}

func newRecorder() *recorder {
	r := &recorder{}
	for i := range r.ops {
		r.ops[i].byStatus = make(map[int]int)
	}
	return r
}

func (r *recorder) problem(format string, args ...any) {
	r.mu.Lock()
	r.nProblem++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *recorder) done(k opKind, due, start, end time.Time, status int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.counting {
		return
	}
	st := &r.ops[k]
	st.attempted++
	st.byStatus[status]++
	if status < 200 || status > 299 {
		st.failed++
	}
	if r.timing {
		st.lat = append(st.lat, ms(end.Sub(due)))
		r.late = append(r.late, ms(start.Sub(due)))
	}
}

// roundDone records a feedback round that started (its explain was
// due) at start and has just ended with the reformulate's answer.
func (r *recorder) roundDone(start time.Time) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counting && r.timing {
		r.rounds = append(r.rounds, ms(end.Sub(start)))
	}
}

func (r *recorder) addSample(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

func (r *recorder) totals() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.ops {
		attempted += st.attempted
		failed += st.failed
	}
	return
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client is the load generator's HTTP side: at most two connections to
// the router, request IDs set by the client, and the per-replica
// version floors the monotonicity check compares against.
type client struct {
	hc      *http.Client
	base    string
	rec     *recorder
	nextID  atomic.Uint64
	runTag  string
	floorMu sync.Mutex
	floor   map[string][2]uint64 // replica URL → highest (generation, version) answered
	// servedSameRates reports whether some version from lo up to the
	// latest the fleet has published served the same rates as version
	// v. The result cache is keyed by rate-vector value, so once a
	// republish returns the fleet to rates it served before, a cached
	// answer carries the older version it was computed at (DESIGN.md
	// §6); that is a lower label for current rates, not a stale answer.
	servedSameRates func(v, lo uint64) bool
	relabels        atomic.Int64
}

func newClient(base string, rec *recorder, tag string, servedSameRates func(v, lo uint64) bool) *client {
	t := newTransport()
	t.MaxConnsPerHost = 2
	return &client{
		hc:              &http.Client{Transport: t, Timeout: 60 * time.Second},
		base:            base,
		rec:             rec,
		runTag:          tag,
		floor:           make(map[string][2]uint64),
		servedSameRates: servedSameRates,
	}
}

// response is one completed request.
type response struct {
	status  int
	body    []byte
	replica string
	floor   [2]uint64 // the serving replica's floor when the request was sent
}

// do sends one request whose due time was due, records it under kind and
// returns the response (status 0 on a transport error).
func (c *client) do(ctx context.Context, kind opKind, due time.Time, method, path string, body []byte) response {
	c.floorMu.Lock()
	floors := make(map[string][2]uint64, len(c.floor))
	for k, v := range c.floor {
		floors[k] = v
	}
	c.floorMu.Unlock()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		c.rec.problem("%s %s: %v", method, path, err)
		return response{}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", c.runTag+strconv.FormatUint(c.nextID.Add(1), 36))
	var out response
	resp, err := c.hc.Do(req)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		out.replica = resp.Header.Get(router.HeaderServedBy)
	}
	end := time.Now()
	if err != nil {
		out.status = 0
		c.rec.problem("%s %s: transport error: %v", method, path, err)
	} else if out.status < 200 || out.status > 299 {
		c.rec.problem("%s %s: status %d: %.200s", method, path, out.status, out.body)
	}
	c.rec.done(kind, due, start, end, out.status)
	out.floor = floors[out.replica]
	return out
}

// observe raises the serving replica's floor after a successful answer
// and checks the answer did not go back in (generation, version), up to
// versions that served the same rates.
func (c *client) observe(what string, r response, gen, version uint64) {
	if r.replica == "" {
		return
	}
	c.monotone(what+" at replica "+r.replica, r.floor, gen, version)
	c.floorMu.Lock()
	f := c.floor[r.replica]
	if gen > f[0] || (gen == f[0] && version > f[1]) {
		c.floor[r.replica] = [2]uint64{gen, version}
	}
	c.floorMu.Unlock()
}

// monotone checks that an answer at (gen, version) is not older than
// floor, or that the older version served bit-identical rates.
func (c *client) monotone(what string, floor [2]uint64, gen, version uint64) {
	switch {
	case gen > floor[0] || (gen == floor[0] && version >= floor[1]):
	case gen == floor[0] && c.servedSameRates(version, floor[1]):
		c.relabels.Add(1)
	default:
		c.rec.problem("%s: answered (gen %d, version %d) after (gen %d, version %d)",
			what, gen, version, floor[0], floor[1])
	}
}

func queryPath(it item, profile string) string {
	v := url.Values{}
	v.Set("q", it.q)
	v.Set("k", strconv.Itoa(topK))
	if it.mode != "" && it.mode != "authority" {
		v.Set("mode", it.mode)
	}
	if profile != "" {
		v.Set("profile", profile)
	}
	return "/v1/query?" + v.Encode()
}

// checkAnswer verifies the structure of one query answer: k results,
// finite non-negative scores in non-increasing order, valid node IDs.
func checkAnswer(rec *recorder, what string, a *queryJSON, numNodes int) bool {
	ok := true
	if len(a.Results) != topK {
		rec.problem("%s: %d results, want %d", what, len(a.Results), topK)
		ok = false
	}
	for i, r := range a.Results {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) || r.Score < 0 {
			rec.problem("%s: result %d has score %v", what, i, r.Score)
			ok = false
		}
		if r.Node < 0 || r.Node >= int64(numNodes) {
			rec.problem("%s: result %d has node %d outside [0,%d)", what, i, r.Node, numNodes)
			ok = false
		}
		if i > 0 && r.Score > a.Results[i-1].Score {
			rec.problem("%s: results not sorted at %d", what, i)
			ok = false
		}
	}
	if a.Generation == 0 || a.Version == 0 {
		rec.problem("%s: missing generation/version", what)
		ok = false
	}
	return ok
}

// runner executes workload operations against the fleet and checks
// every answer's structure, keeping a seeded sample for the reference
// checker.
type runner struct {
	c        *client
	rec      *recorder
	numNodes int
	seed     int64
	sampleP  float64 // share of distinct reads whose answers are kept for the reference check

	// kept maps a sampled read at a rates version to the answer kept for
	// it; a later answer bit-identical to the kept one is counted in
	// repeats instead of being kept again.
	keptMu  sync.Mutex
	kept    map[string][]resultJSON
	repeats int
}

// wantSample selects the reads the reference check covers by a seeded
// hash of the read itself, so the same reads are checked whatever
// order the two workers complete them in.
func (ru *runner) wantSample(it item, profile string) bool {
	if ru.sampleP >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s", ru.seed, it.q, it.mode, profile)
	return float64(h.Sum64()%1_000_000)/1e6 < ru.sampleP
}

func (ru *runner) keep(class checkClass, it item, profile string, a *queryJSON) {
	if !ru.wantSample(it, profile) {
		return
	}
	key := fmt.Sprintf("%d\x00%d\x00%s\x00%s\x00%s", a.Generation, a.Version, it.q, it.mode, profile)
	ru.keptMu.Lock()
	prev, seen := ru.kept[key]
	if seen && sameResults(prev, a.Results) {
		ru.repeats++
		ru.keptMu.Unlock()
		return
	}
	if ru.kept == nil {
		ru.kept = make(map[string][]resultJSON)
	}
	ru.kept[key] = a.Results
	ru.keptMu.Unlock()
	ru.rec.addSample(sample{class: class, it: it, profile: profile, version: a.Version, results: a.Results})
}

// sameResults reports whether two answers list the same nodes with
// bit-identical scores.
func sameResults(a, b []resultJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// read runs one read op and returns whether it succeeded. Its answers
// are checked in the exact class.
func (ru *runner) read(ctx context.Context, op readOp, due time.Time) bool {
	switch op.kind {
	case opBatch:
		req := server.BatchQueryRequest{Queries: make([]server.BatchQueryItem, len(op.items))}
		for i, it := range op.items {
			req.Queries[i] = server.BatchQueryItem{Q: it.q, K: topK, Mode: it.mode}
		}
		body, _ := json.Marshal(req)
		r := ru.c.do(ctx, opBatch, due, http.MethodPost, "/v1/query/batch", body)
		if r.status != http.StatusOK {
			return false
		}
		var br struct {
			Version    uint64      `json:"version"`
			Generation uint64      `json:"generation"`
			Answers    []queryJSON `json:"answers"`
		}
		if err := json.Unmarshal(r.body, &br); err != nil {
			ru.rec.problem("batch: bad JSON: %v", err)
			return false
		}
		if len(br.Answers) != len(op.items) {
			ru.rec.problem("batch: %d answers for %d queries", len(br.Answers), len(op.items))
			return false
		}
		for i := range br.Answers {
			a := &br.Answers[i]
			what := fmt.Sprintf("batch[%d] %q", i, op.items[i].q)
			if a.Generation != br.Generation {
				ru.rec.problem("%s: answer at generation %d in a batch at generation %d", what, a.Generation, br.Generation)
			}
			if a.Version != br.Version {
				// A cached answer carries the version it was computed at;
				// it must be one that served the batch version's rates.
				ru.c.monotone(what+" in its batch", [2]uint64{br.Generation, br.Version}, a.Generation, a.Version)
			}
			if checkAnswer(ru.rec, what, a, ru.numNodes) {
				ru.keep(classExact, op.items[i], "", a)
			}
		}
		return true
	default:
		it := op.items[0]
		r := ru.c.do(ctx, op.kind, due, http.MethodGet, queryPath(it, op.profile), nil)
		if r.status != http.StatusOK {
			return false
		}
		a, ok := ru.answer("query "+it.q, r)
		if ok {
			ru.keep(classExact, it, op.profile, a)
		}
		return ok
	}
}

// answer parses and structure-checks a /v1/query response.
func (ru *runner) answer(what string, r response) (*queryJSON, bool) {
	var a queryJSON
	if err := json.Unmarshal(r.body, &a); err != nil {
		ru.rec.problem("%s: bad JSON: %v", what, err)
		return nil, false
	}
	ru.c.observe(what, r, a.Generation, a.Version)
	return &a, checkAnswer(ru.rec, what, &a, ru.numNodes)
}

// explainJSON mirrors the /v1/explain fields the checker reads.
type explainJSON struct {
	Target     int64      `json:"target"`
	Node       int64      `json:"node"`
	Score      float64    `json:"score"`
	Generation uint64     `json:"generation"`
	Nodes      []struct{} `json:"nodes"`
}

type auditJSON struct {
	Node          int64   `json:"node"`
	Score         float64 `json:"score"`
	Budget        int     `json:"budget"`
	TotalArcs     int     `json:"totalArcs"`
	Generation    uint64  `json:"generation"`
	Contributions []struct {
		Sensitivity float64 `json:"sensitivity"`
		Flow        float64 `json:"flow"`
	} `json:"contributions"`
}

const auditBudget = 16

// session runs one feedback session (query → explain → audit →
// reformulate → re-query) for q; each step is due when the previous
// one completed (the first at due). The feedback round, from the
// explain's due time to the reformulate's answer, is recorded as one
// latency. publish appends a republish of the baseline rates.
func (ru *runner) session(ctx context.Context, q string, due time.Time, publish []float64) bool {
	it := item{q: q}
	r := ru.c.do(ctx, opQuery, due, http.MethodGet, queryPath(it, ""), nil)
	if r.status != http.StatusOK {
		return false
	}
	a, ok := ru.answer("session query "+q, r)
	if !ok {
		return false
	}
	ru.keep(classConvergence, it, "", a)
	target := a.Results[0].Node
	tq := url.Values{"q": {q}, "target": {strconv.FormatInt(target, 10)}}

	round := time.Now()
	r = ru.c.do(ctx, opExplain, round, http.MethodGet, "/v1/explain?"+tq.Encode(), nil)
	if r.status != http.StatusOK {
		return false
	}
	var ex explainJSON
	if err := json.Unmarshal(r.body, &ex); err != nil {
		ru.rec.problem("explain %q: bad JSON: %v", q, err)
		return false
	}
	if ex.Node != target || ex.Target != target || len(ex.Nodes) == 0 || !finiteNonNeg(ex.Score) || ex.Generation == 0 {
		ru.rec.problem("explain %q target %d: node %d target %d nodes %d score %v gen %d",
			q, target, ex.Node, ex.Target, len(ex.Nodes), ex.Score, ex.Generation)
		return false
	}

	aq := url.Values{"q": {q}, "target": {strconv.FormatInt(target, 10)}, "budget": {strconv.Itoa(auditBudget)}}
	r = ru.c.do(ctx, opAudit, time.Now(), http.MethodGet, "/v1/audit?"+aq.Encode(), nil)
	if r.status != http.StatusOK {
		return false
	}
	var au auditJSON
	if err := json.Unmarshal(r.body, &au); err != nil {
		ru.rec.problem("audit %q: bad JSON: %v", q, err)
		return false
	}
	if !checkAudit(&au, target) {
		ru.rec.problem("audit %q target %d: node %d budget %d contributions %d total %d score %v",
			q, target, au.Node, au.Budget, len(au.Contributions), au.TotalArcs, au.Score)
		return false
	}

	fq := url.Values{"q": {q}, "feedback": {strconv.FormatInt(target, 10)}, "mode": {"structure"}, "k": {strconv.Itoa(topK)}}
	r = ru.c.do(ctx, opReformulate, time.Now(), http.MethodGet, "/v1/reformulate?"+fq.Encode(), nil)
	if r.status != http.StatusOK {
		return false
	}
	ru.rec.roundDone(round)
	var rf struct {
		Version uint64       `json:"version"`
		Results []resultJSON `json:"results"`
	}
	if err := json.Unmarshal(r.body, &rf); err != nil {
		ru.rec.problem("reformulate %q: bad JSON: %v", q, err)
		return false
	}
	if rf.Version <= a.Version || !sortedFinite(rf.Results) || len(rf.Results) != topK {
		ru.rec.problem("reformulate %q: version %d after query version %d, %d results", q, rf.Version, a.Version, len(rf.Results))
		return false
	}

	r = ru.c.do(ctx, opRequery, time.Now(), http.MethodGet, queryPath(it, ""), nil)
	if r.status != http.StatusOK {
		return false
	}
	a2, ok := ru.answer("session re-query "+q, r)
	if !ok {
		return false
	}
	ru.c.monotone("re-query "+q+" after its reformulate", [2]uint64{a2.Generation, rf.Version}, a2.Generation, a2.Version)
	ru.keep(classConvergence, it, "", a2)

	if publish != nil {
		body, _ := json.Marshal(server.RatesPublishRequest{Vector: publish})
		r = ru.c.do(ctx, opPublish, time.Now(), http.MethodPost, "/v1/rates", body)
		if r.status != http.StatusOK {
			return false
		}
		var pr server.RatesResponse
		if err := json.Unmarshal(r.body, &pr); err != nil || pr.Version <= a2.Version {
			ru.rec.problem("publish: version %d after %d (%v)", pr.Version, a2.Version, err)
			return false
		}
	}
	return true
}

func checkAudit(au *auditJSON, target int64) bool {
	if au.Node != target || au.Budget != auditBudget || len(au.Contributions) > auditBudget ||
		au.TotalArcs < len(au.Contributions) || !finiteNonNeg(au.Score) || au.Generation == 0 {
		return false
	}
	for i, c := range au.Contributions {
		if math.IsNaN(c.Sensitivity) || math.IsInf(c.Sensitivity, 0) || math.IsNaN(c.Flow) {
			return false
		}
		if i > 0 && c.Sensitivity > au.Contributions[i-1].Sensitivity {
			return false
		}
	}
	return true
}

func finiteNonNeg(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) && x >= 0 }

func sortedFinite(rs []resultJSON) bool {
	for i, r := range rs {
		if !finiteNonNeg(r.Score) || (i > 0 && r.Score > rs[i-1].Score) {
			return false
		}
	}
	return true
}

// ---- open and closed loops ----

// openLoop sends n operations on a fixed schedule (operation i due at
// start + i/rate) from two workers. A worker that falls behind sends
// immediately; the wait counts in the latency, which is measured from
// the due time.
func openLoop(ctx context.Context, n int, rate float64, run func(i int, due time.Time)) time.Duration {
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				run(i, due)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// closedLoop runs two clients back to back for d and returns the
// completed requests per wall-clock second of each capacityWindow (of
// one window of d, when d is shorter).
func closedLoop(ctx context.Context, d time.Duration, run func(due time.Time), completed func() int) []float64 {
	window := min(capacityWindow, d)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				run(time.Now())
			}
		}()
	}
	var rates []float64
	n, t := completed(), start
	for end := start.Add(window); !end.After(deadline); end = end.Add(window) {
		time.Sleep(time.Until(end))
		n1, t1 := completed(), time.Now()
		rates = append(rates, float64(n1-n)/t1.Sub(t).Seconds())
		n, t = n1, t1
	}
	wg.Wait()
	return rates
}

// capacityWindow is the closed-loop measurement window; capacity_rps
// is the median window.
const capacityWindow = time.Second

// ---- query sets ----

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// pickTerms returns k terms drawn with replacement from vocab, joined
// by spaces. Drawing with replacement keeps repeated-term queries such
// as "1991 1991" in the mix.
func pickTerms(rng *rand.Rand, vocab []string, k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = vocab[rng.Intn(len(vocab))]
	}
	return strings.Join(parts, " ")
}
