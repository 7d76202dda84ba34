package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"authorityflow/internal/cache"
	"authorityflow/internal/ir"
	"authorityflow/internal/server"
)

// workloadSpec fixes one workload's corpus and offered load. The
// offered rates are stated in BENCHMARK.json and perfbench/BENCHMARK.md.
//
// Each rate is offeredShare of the workload's closed-loop capacity
// (capacity_rps, two clients) measured on a 2-vCPU Xeon VM, converted
// to operations: hot_read about 3,500 requests/s, cold_read about 43,
// feedback_session about 46 (5.25 requests per session). At a third of
// the capacity a request mostly finds a free CPU, even while the shared
// host runs 30 % slower than usual, so the open-loop p50s measure
// service time rather than queueing; every run prints the share it
// actually offered.
type workloadSpec struct {
	name     string
	scale    float64 // dblptop scale factor
	rate     float64 // open-loop operations (sessions for feedback_session) per second
	sampleP  float64 // share of read answers kept for the reference check
	sessions bool
}

// offeredShare is the open loop's target share of the closed-loop
// capacity.
const offeredShare = 1.0 / 3

var workloads = map[string]workloadSpec{
	"hot_read":         {name: "hot_read", scale: 1.0, rate: 1200, sampleP: 1},
	"cold_read":        {name: "cold_read", scale: 1.0, rate: 14, sampleP: 0.1},
	"feedback_session": {name: "feedback_session", scale: 0.1, rate: 3, sampleP: 1, sessions: true},
}

// republishEvery is R: every R-th feedback session ends by republishing
// the baseline rates through the router, keeping the workload
// stationary.
const republishEvery = 4

// opSource is a workload's seeded operation stream. The open-loop
// schedule is drawn from it before the phase starts; the closed-loop
// phase keeps drawing from it under its mutex.
type opSource interface {
	next() op
}

// op is one scheduled unit of work: a read, or a whole feedback session.
type op struct {
	read    readOp
	session string
	publish bool
}

// ---- hot_read ----

// hotSource draws Zipf-popular reads over a fixed key set: one- and
// two-term queries in all three modes, 10% batches of 8 popular keys
// and 10% profile-scoped queries.
type hotSource struct {
	mu       sync.Mutex
	n        int
	rng      *rand.Rand
	keys     []item
	zipf     *zipf
	profQ    []item
	profZipf *zipf
	profiles []string // placed by warmHot
}

const (
	hotQueries   = 64 // distinct query strings (half one-term, half two-term), 192 keys
	hotProfiles  = 4
	hotProfileQs = 16 // the most popular authority queries, asked per profile
	zipfS        = 1.1
)

func newHotSource(seed int64, vocab []string) *hotSource {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var qs []string
	for len(qs) < hotQueries {
		n := 1 + len(qs)%2
		q := pickTerms(rng, vocab, n)
		if len(qs)%16 == 15 {
			// Every eighth two-term query repeats its term ("1991
			// 1991"): users type such queries, and their cached answers
			// are a known last-bits mismatch the checker must keep
			// visible (check.bitwise_mismatches).
			t := pickTerms(rng, vocab, 1)
			q = t + " " + t
		}
		if !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	var keys []item
	for _, q := range qs {
		for _, m := range []string{"authority", "hub", "combined"} {
			keys = append(keys, item{q: q, mode: m})
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	h := &hotSource{rng: rng, keys: keys, zipf: newZipf(len(keys), zipfS)}
	for _, k := range keys {
		if k.mode == "authority" && len(h.profQ) < hotProfileQs {
			h.profQ = append(h.profQ, k)
		}
	}
	h.profZipf = newZipf(len(h.profQ), zipfS)
	return h
}

func (h *hotSource) next() op {
	h.mu.Lock()
	defer h.mu.Unlock()
	// The mix is fixed by position (every tenth operation a batch, every
	// tenth a profile query) so every stretch of the stream costs about
	// the same; only the keys are drawn.
	h.n++
	switch h.n % 10 {
	case 0:
		items := make([]item, batchSize)
		for i := range items {
			items[i] = h.keys[h.zipf.draw(h.rng)]
		}
		return op{read: readOp{kind: opBatch, items: items}}
	case 5:
		p := h.profiles[h.rng.Intn(len(h.profiles))]
		return op{read: readOp{kind: opProfile, items: []item{h.profQ[h.profZipf.draw(h.rng)]}, profile: p}}
	default:
		return op{read: readOp{kind: opQuery, items: []item{h.keys[h.zipf.draw(h.rng)]}}}
	}
}

// ---- cold_read ----

// coldSource draws distinct, never-repeated two- and three-term
// queries in authority and hub modes; every fifth operation is a batch
// of 8 such queries.
type coldSource struct {
	mu    sync.Mutex
	n     int // operations drawn
	k     int // queries drawn
	rng   *rand.Rand
	vocab []string
	seen  map[string]bool
}

func newColdSource(seed int64, vocab []string) *coldSource {
	return &coldSource{rng: rand.New(rand.NewSource(seed)), vocab: vocab, seen: make(map[string]bool)}
}

// fresh draws the next never-seen query. Term count and mode cycle
// through (2, authority), (3, authority), (2, hub), (3, hub) so every
// stretch of the stream has the same mix; only the terms are drawn.
func (c *coldSource) fresh() item {
	c.k++
	mode := "authority"
	if c.k%4 >= 2 {
		mode = "hub"
	}
	for {
		q := pickTerms(c.rng, c.vocab, 2+c.k%2)
		key := canonical(q)
		if c.seen[key] {
			continue
		}
		c.seen[key] = true
		return item{q: q, mode: mode}
	}
}

// canonical keys a query the way the serving cache does, so "a b" and
// "b a" count as one query. A query of one repeated term is keyed by
// the term alone: the cache answers "a a" and "a a a" from one term
// vector, so the second would be a cache hit, not a solve.
func canonical(q string) string {
	pq := ir.ParseQuery(q)
	if t := pq.Terms(); len(t) == 1 {
		return t[0]
	}
	return cache.CanonicalQuery(pq)
}

func (c *coldSource) next() op {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n%5 == 0 {
		items := make([]item, batchSize)
		for i := range items {
			items[i] = c.fresh()
		}
		return op{read: readOp{kind: opBatch, items: items}}
	}
	return op{read: readOp{kind: opQuery, items: []item{c.fresh()}}}
}

// ---- feedback_session ----

// sessionSource draws the two-term query of each feedback session from
// a fixed seeded pool; every republishEvery-th session republishes the
// baseline rates.
type sessionSource struct {
	mu   sync.Mutex
	rng  *rand.Rand
	pool []string
	n    int
}

func newSessionSource(seed int64, vocab []string) *sessionSource {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, 200)
	for i := range pool {
		pool[i] = pickTerms(rng, vocab, 2)
	}
	return &sessionSource{rng: rng, pool: pool}
}

func (s *sessionSource) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return op{session: s.pool[s.rng.Intn(len(s.pool))], publish: s.n%republishEvery == 0}
}

// queryVocab lists the index terms with document frequency of at least
// minDF, sorted, so the seeded draws are reproducible.
func queryVocab(ix *ir.Index, minDF int) []string {
	terms := ix.TermsWithDF(minDF)
	sort.Strings(terms)
	return terms
}

// ---- warm-up ----

// warmHot brings hot_read to its steady state: profiles created and
// every key and profile answer cached. Keys go out in batches of 8,
// which the router splits by the same owner a single query of the key
// is routed to, so single reads of every key hit afterwards.
//
// Profiles live on the replica the router hashes their id to, and each
// replica builds its profile basis on its first profile query; the
// profiles are placed two per replica so both replicas always carry a
// basis and the same share of profile traffic, whatever ports the
// fleet listens on.
func warmHot(ctx context.Context, ru *runner, h *hotSource, mixtures []map[string]float64, ref *referenceCheck) error {
	h.profiles = h.profiles[:0]
	perReplica := make(map[string]int)
	for i := 0; len(h.profiles) < len(mixtures); i++ {
		if i == 64 {
			return fmt.Errorf("could not place %d profiles evenly over the replicas", len(mixtures))
		}
		id := fmt.Sprintf("user%d", i)
		mix := mixtures[len(h.profiles)]
		body, _ := json.Marshal(server.ProfileUpdateRequest{Mixture: mix, Beta: profileBeta})
		r := ru.c.do(ctx, opProfile, time.Now(), http.MethodPut, "/v1/profile/"+id, body)
		if r.status != http.StatusOK || r.replica == "" {
			return fmt.Errorf("creating profile %s: status %d from %q: %s", id, r.status, r.replica, r.body)
		}
		if perReplica[r.replica] >= len(mixtures)/numReplicas {
			if r := ru.c.do(ctx, opProfile, time.Now(), http.MethodDelete, "/v1/profile/"+id, nil); r.status/100 != 2 {
				return fmt.Errorf("deleting profile %s: status %d", id, r.status)
			}
			continue
		}
		perReplica[r.replica]++
		h.profiles = append(h.profiles, id)
		ref.profiles[id] = profileSpec{mixture: mix, beta: profileBeta}
	}
	for i := 0; i < len(h.keys); i += batchSize {
		end := i + batchSize
		if end > len(h.keys) {
			end = len(h.keys)
		}
		if !ru.read(ctx, readOp{kind: opBatch, items: h.keys[i:end]}, time.Now()) {
			return fmt.Errorf("warming keys %d..%d failed", i, end)
		}
	}
	for _, p := range h.profiles {
		for _, k := range h.profQ {
			if !ru.read(ctx, readOp{kind: opProfile, items: []item{k}, profile: p}, time.Now()) {
				return fmt.Errorf("warming profile %s %q failed", p, k.q)
			}
		}
	}
	return nil
}

// profileBeta is the blend factor of the profiles hot_read creates.
const profileBeta = 0.3
