package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"authorityflow/internal/core"
	"authorityflow/internal/graph"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
	"authorityflow/internal/storage"
)

// checkClass selects how a served answer is compared with the
// reference engine.
type checkClass int

const (
	// classExact covers answers that are cold solves, cache hits of
	// cold solves, or profile combinations of them: node order must
	// match the reference except where reference scores tie within
	// relTol, and every score must agree within relTol. Bitwise
	// disagreements within that tolerance are counted, not failed (see
	// referenceCheck.bitwise).
	classExact checkClass = iota
	// classConvergence covers the feedback session's reads, which are
	// served after rates publishes and may be warm-started from any
	// earlier vector. Its ε (convergenceEps) is larger than every score
	// at the paper defaults, so this class can reject a wrong score
	// only when it is off by more than ε, and never a node.
	classConvergence
)

// relTol is the exact class's relative score tolerance. Answers that
// follow the reference's arithmetic differ from it only in the last
// bits (the cached answer to a repeated-term query such as "1991 1991"
// reuses the weight-1 term vector and differs by a few ulps), far below
// this bound; a wrong node or a wrong score is far above it.
const relTol = 1e-9

// convergenceEps is the convergence class's absolute score tolerance
// for authority-mode answers under rates r, derived from the kernel's
// stopping rule. The power iteration x ← d·A·x + (1−d)·s is a
// contraction in L1 with factor c = d·L, where L bounds the L1 norm of
// the transfer operator A: no node passes on more than the total rate
// of its type's outgoing transfer types, so L = max_t OutgoingSum(t).
// A run stops once ‖x_k − x_{k−1}‖₁ < θ, so
// ‖x_k − x*‖₁ ≤ c/(1−c)·‖x_k − x_{k−1}‖₁ < c·θ/(1−c), whatever the
// start vector (warm starts included). A served answer and the
// reference both satisfy this, so any single score of theirs differs by
// less than ε = 2·c·θ/(1−c). It returns +Inf when c ≥ 1 (no
// contraction, no bound).
func convergenceEps(opts rank.Options, r *graph.Rates) (eps, c float64) {
	n := opts.Normalized()
	l := 0.0
	for t := 0; t < r.Schema().NumNodeTypes(); t++ {
		l = math.Max(l, r.OutgoingSum(graph.TypeID(t)))
	}
	c = n.Damping * l
	if c >= 1 {
		return math.Inf(1), c
	}
	return 2 * c * n.Threshold / (1 - c), c
}

// profileSpec is a profile the benchmark created during set-up.
type profileSpec struct {
	mixture map[string]float64
	beta    float64
}

// referenceCheck compares served answers with an uncached core.Engine
// built from the same snapshot and configuration as the replicas.
type referenceCheck struct {
	eng      *core.Engine // built by load, after the timed phase
	base     *graph.Rates // the baseline rates (the loaded snapshot's once load has run)
	initial  uint64       // the rates version a fresh fleet starts at
	basis    *profile.Basis
	profiles map[string]profileSpec // profile id → what the benchmark created

	mu    sync.Mutex
	rates map[uint64][]float64 // rates version → vector served at it

	checked, failed, bitwise, unresolved int
	maxEpsShare                          float64 // largest |served−ref| / ε seen in the convergence class
	problems                             []string
}

func newReferenceCheck(baseline *graph.Rates, initialVersion uint64) *referenceCheck {
	rc := &referenceCheck{base: baseline.Clone(), initial: initialVersion}
	rc.resetRates()
	return rc
}

// load builds the reference engine from the snapshot file, with the
// replicas' configuration, and (for basisTerms) the profile basis.
func (rc *referenceCheck) load(ctx context.Context, snapPath string, basisTerms []string) error {
	ds, ix, err := storage.ReadSnapshotFile(snapPath)
	if err != nil {
		return err
	}
	corpus, err := core.NewCorpusWithIndex(ds.Graph, ix, replicaConfig())
	if err != nil {
		return err
	}
	eng, err := core.NewEngineWith(corpus, ds.Rates)
	if err != nil {
		return err
	}
	// Compute the generation's global warm-start vector now, under the
	// baseline rates, as the replicas do on their first solve: every
	// derived WithRates view shares it, so cold solves at any later
	// rates start from the same vector the replicas' do.
	eng.GlobalRank()
	rc.eng = eng
	rc.base = ds.Rates // same values; the loaded schema is the one the engine validates against
	if basisTerms != nil {
		rc.basis, err = profile.BuildBasis(ctx, eng.Pin(), basisTerms)
	}
	return err
}

// resetRates forgets every version but the initial one: a fresh fleet
// starts its version sequence over.
func (rc *referenceCheck) resetRates() {
	rc.mu.Lock()
	rc.rates = map[uint64][]float64{rc.initial: rc.base.Vector()}
	rc.profiles = make(map[string]profileSpec)
	rc.mu.Unlock()
}

// recordRates stores the vector the fleet served at version (first
// writer wins; every replica passes through the same sequence).
func (rc *referenceCheck) recordRates(version uint64, vec []float64) {
	rc.mu.Lock()
	if _, ok := rc.rates[version]; !ok {
		rc.rates[version] = append([]float64(nil), vec...)
	}
	rc.mu.Unlock()
}

// servedSameRates reports whether a version in [lo, latest known]
// served rates bit-identical to version v's: then an answer labelled v
// that arrives once the fleet has reached lo is current, not stale.
func (rc *referenceCheck) servedSameRates(v, lo uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	want, ok := rc.rates[v]
	if !ok {
		return false
	}
	for u, vec := range rc.rates {
		if u >= lo && graph.SameRateVector(vec, want) {
			return true
		}
	}
	return false
}

func (rc *referenceCheck) problem(format string, args ...any) {
	rc.failed++
	if len(rc.problems) < 20 {
		rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
	}
}

// pinAt returns a reference view at the rates served under version.
func (rc *referenceCheck) pinAt(version uint64) (*core.Pinned, bool) {
	rc.mu.Lock()
	vec, ok := rc.rates[version]
	rc.mu.Unlock()
	if !ok {
		return nil, false
	}
	r := rc.base.Clone()
	if err := r.SetVector(vec); err != nil {
		return nil, false
	}
	p, err := rc.eng.Pin().WithRates(r)
	if err != nil {
		return nil, false
	}
	return p, true
}

// refAnswer is a reference score vector with its top k, computed once
// and shared by every sample of the same read.
type refAnswer struct {
	scores []float64
	top    []rank.Ranked
}

func newRefAnswer(scores []float64) *refAnswer {
	return &refAnswer{scores: scores, top: rank.TopK(scores, topK)}
}

// topN returns the reference's n best nodes.
func (r *refAnswer) topN(n int) []rank.Ranked {
	if n == len(r.top) {
		return r.top
	}
	return rank.TopK(r.scores, n)
}

// solve computes the reference answer for a sample, or nil when the
// rates it was served at are unknown.
func (rc *referenceCheck) solve(ctx context.Context, s sample) (*refAnswer, error) {
	pin, ok := rc.pinAt(s.version)
	if !ok {
		return nil, nil
	}
	q := ir.ParseQuery(s.it.q)
	var res *core.RankResult
	var err error
	if s.profile != "" {
		// The server's route (profile.Manager.QueryCtx): the query's
		// authority fixpoint combined with the basis vectors.
		spec, ok := rc.profiles[s.profile]
		if !ok || rc.basis == nil || !rc.basis.ValidFor(pin) {
			return nil, fmt.Errorf("no reference for profile %q at version %d", s.profile, s.version)
		}
		if res, err = pin.RankModeCtx(ctx, q, core.ModeAuthority); err != nil {
			return nil, err
		}
		out := newRefAnswer(rc.basis.Combine(res.Scores, spec.mixture, spec.beta))
		rc.eng.Release(res)
		return out, nil
	}
	if s.init != nil {
		res, err = pin.RankFromCtx(ctx, q, s.init)
	} else {
		mode, perr := core.ParseMode(s.it.mode)
		if perr != nil {
			return nil, perr
		}
		res, err = pin.RankModeCtx(ctx, q, mode)
	}
	if err != nil {
		return nil, err
	}
	out := newRefAnswer(append([]float64(nil), res.Scores...))
	rc.eng.Release(res)
	return out, nil
}

type refResult struct {
	ref *refAnswer
	err error
}

// solveAll computes one reference answer per distinct read among the
// samples (a sample with its own start vector counts as distinct),
// on two workers.
func (rc *referenceCheck) solveAll(ctx context.Context, samples []sample) []refResult {
	keyOf := func(s sample) string {
		return fmt.Sprintf("%d\x00%s\x00%s\x00%s", s.version, s.it.q, s.it.mode, s.profile)
	}
	first := make(map[string]int)
	var todo []int
	for i, s := range samples {
		if _, seen := first[keyOf(s)]; !seen || s.init != nil {
			first[keyOf(s)] = i
			todo = append(todo, i)
		}
	}
	solved := make([]refResult, len(samples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(todo) {
					return
				}
				i := todo[j]
				ref, err := rc.solve(ctx, samples[i])
				solved[i] = refResult{ref, err}
			}
		}()
	}
	wg.Wait()
	out := make([]refResult, len(samples))
	for i, s := range samples {
		if s.init != nil {
			out[i] = solved[i]
		} else {
			out[i] = solved[first[keyOf(s)]]
		}
	}
	return out
}

// check compares every sample with the reference.
func (rc *referenceCheck) check(ctx context.Context, samples []sample) {
	refs := rc.solveAll(ctx, samples)
	for i, s := range samples {
		ref, err := refs[i].ref, refs[i].err
		if err != nil {
			rc.problem("reference for %q: %v", s.it.q, err)
			continue
		}
		if ref == nil {
			// Every version the fleet serves is tapped, so this is a
			// checker fault; it must not pass as a clean run.
			rc.unresolved++
			rc.problem("no rates recorded for version %d of %q", s.version, s.it.q)
			continue
		}
		rc.checked++
		what := func() string {
			return fmt.Sprintf("%q mode=%q profile=%q version %d", s.it.q, s.it.mode, s.profile, s.version)
		}
		switch s.class {
		case classExact:
			bitwise, msg := compareExact(s.results, ref)
			if msg != "" {
				rc.problem("exact class %s: %s", what(), msg)
			} else if !bitwise {
				rc.bitwise++
			}
		case classConvergence:
			eps := math.Inf(1)
			if pin, ok := rc.pinAt(s.version); ok {
				eps, _ = convergenceEps(rc.eng.Options(), pin.Rates())
			}
			share, msg := compareConvergence(s.results, ref, eps)
			if msg != "" {
				rc.problem("convergence class %s: %s", what(), msg)
			}
			rc.maxEpsShare = math.Max(rc.maxEpsShare, share)
		}
	}
}

// closeRel reports whether a and b agree within relTol.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// compareExact checks served against the reference score vector. It
// returns whether every served score is bit-identical to the
// reference, and a non-empty message when the answer is wrong.
func compareExact(served []resultJSON, ra *refAnswer) (bitwise bool, msg string) {
	ref, top := ra.scores, ra.topN(len(served))
	if len(top) != len(served) {
		return false, fmt.Sprintf("%d results, reference has %d", len(served), len(top))
	}
	bitwise = true
	for i, s := range served {
		if s.Node < 0 || s.Node >= int64(len(ref)) {
			return false, fmt.Sprintf("rank %d: node %d out of range", i, s.Node)
		}
		rs := ref[s.Node]
		if math.Float64bits(rs) != math.Float64bits(s.Score) {
			bitwise = false
		}
		if !closeRel(rs, s.Score) {
			return false, fmt.Sprintf("rank %d node %d: score %.17g, reference %.17g", i, s.Node, s.Score, rs)
		}
		if graph.NodeID(s.Node) != top[i].Node && !closeRel(rs, top[i].Score) {
			return false, fmt.Sprintf("rank %d: node %d (reference score %.17g), reference ranks node %d (%.17g) here",
				i, s.Node, rs, top[i].Node, top[i].Score)
		}
	}
	return bitwise, ""
}

// compareConvergence checks that every served node belongs in the
// reference top k up to eps and that its served score is within eps of
// the reference. It returns the largest |served−ref|/eps seen.
func compareConvergence(served []resultJSON, ra *refAnswer, eps float64) (share float64, msg string) {
	ref, top := ra.scores, ra.topN(len(served))
	if len(top) != len(served) || len(top) == 0 {
		return 0, fmt.Sprintf("%d results, reference has %d", len(served), len(top))
	}
	kth := top[len(top)-1].Score
	for i, s := range served {
		if s.Node < 0 || s.Node >= int64(len(ref)) {
			return share, fmt.Sprintf("rank %d: node %d out of range", i, s.Node)
		}
		rs := ref[s.Node]
		if rs < kth-eps {
			return share, fmt.Sprintf("rank %d node %d: reference score %.6g below the reference k-th %.6g by more than ε=%.3g", i, s.Node, rs, kth, eps)
		}
		d := math.Abs(s.Score - rs)
		if d > eps {
			return share, fmt.Sprintf("rank %d node %d: score %.6g, reference %.6g, beyond ε=%.3g", i, s.Node, s.Score, rs, eps)
		}
		share = math.Max(share, d/eps)
	}
	return share, ""
}
