package main

import (
	"context"
	"math"
	"testing"

	"authorityflow/internal/core"
	"authorityflow/internal/datagen"
	"authorityflow/internal/ir"
	"authorityflow/internal/profile"
	"authorityflow/internal/rank"
)

// servedFromReference ranks q on a small corpus and renders its top 10
// the way the server does.
func servedFromReference(t *testing.T) ([]resultJSON, []float64) {
	t.Helper()
	ds, err := datagen.Preset("dblptop", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, replicaConfig())
	if err != nil {
		t.Fatal(err)
	}
	vocab := queryVocab(eng.Index(), 2)
	res, err := eng.Pin().RankModeCtx(context.Background(), ir.ParseQuery(vocab[0]+" "+vocab[1]), core.ModeAuthority)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]float64(nil), res.Scores...)
	var served []resultJSON
	for _, r := range rank.TopK(ref, topK) {
		served = append(served, resultJSON{Node: int64(r.Node), Score: r.Score})
	}
	if len(served) != topK || served[0].Score == served[1].Score || served[2].Score == served[3].Score {
		t.Fatalf("fixture needs %d distinct-scored results, got %+v", topK, served)
	}
	return served, ref
}

func TestExactClassRejectsCorruptedAnswers(t *testing.T) {
	served, ref := servedFromReference(t)
	clone := func() []resultJSON { return append([]resultJSON(nil), served...) }

	if bitwise, msg := compareExact(served, newRefAnswer(ref)); msg != "" || !bitwise {
		t.Fatalf("the reference's own answer: bitwise=%v msg=%q", bitwise, msg)
	}

	ulp := clone()
	ulp[4].Score = math.Nextafter(ulp[4].Score, 1)
	if bitwise, msg := compareExact(ulp, newRefAnswer(ref)); msg != "" || bitwise {
		t.Fatalf("a last-bit difference must pass and count as a bitwise mismatch: bitwise=%v msg=%q", bitwise, msg)
	}

	corrupt := map[string]func(a []resultJSON){
		"two nodes swapped": func(a []resultJSON) { a[2].Node, a[3].Node = a[3].Node, a[2].Node },
		"one node replaced": func(a []resultJSON) {
			out := rank.TopK(ref, 40)
			a[5].Node = int64(out[len(out)-1].Node)
		},
		"one score changed": func(a []resultJSON) { a[0].Score *= 1.001 },
	}
	for name, f := range corrupt {
		a := clone()
		f(a)
		if _, msg := compareExact(a, newRefAnswer(ref)); msg == "" {
			t.Errorf("%s: accepted", name)
		}
	}

	// The structure check, which every response passes through, rejects
	// a short or unsorted answer before the reference is consulted.
	rec := newRecorder()
	short := &queryJSON{Version: 1, Generation: 1, Results: served[:topK-1]}
	if checkAnswer(rec, "short", short, len(ref)) {
		t.Error("an answer with k-1 results passed the structure check")
	}
	unsorted := &queryJSON{Version: 1, Generation: 1, Results: clone()}
	unsorted.Results[0], unsorted.Results[1] = unsorted.Results[1], unsorted.Results[0]
	if checkAnswer(rec, "unsorted", unsorted, len(ref)) {
		t.Error("an unsorted answer passed the structure check")
	}
}

func TestConvergenceClass(t *testing.T) {
	// Reference scores 10, 9, ..., 1 over nodes 0..9 plus a tail; ε = 0.5.
	ref := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0.4, 0.2}
	served := make([]resultJSON, 10)
	for i := range served {
		served[i] = resultJSON{Node: int64(i), Score: ref[i] + 0.3}
	}
	if _, msg := compareConvergence(served, newRefAnswer(ref), 0.5); msg != "" {
		t.Fatalf("an answer within ε was rejected: %s", msg)
	}
	// Node 10's reference score 0.4 is more than ε below the reference
	// k-th score 1.
	bad := append([]resultJSON(nil), served...)
	bad[9] = resultJSON{Node: 10, Score: 0.9}
	if _, msg := compareConvergence(bad, newRefAnswer(ref), 0.5); msg == "" {
		t.Error("a node outside the reference top k by more than ε was accepted")
	}
	bad = append([]resultJSON(nil), served...)
	bad[0].Score = 11
	if _, msg := compareConvergence(bad, newRefAnswer(ref), 0.5); msg == "" {
		t.Error("a score farther than ε from the reference was accepted")
	}
}

func TestConvergenceEpsFromContraction(t *testing.T) {
	ds, err := datagen.Preset("dblptop", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	eps, c := convergenceEps(rank.Options{}, ds.Rates)
	// Paper defaults d = 0.85, θ = 0.002; dblptop's outgoing rates sum
	// to at most 1 per node type, so c = 0.85 and ε = 2·c·θ/(1−c).
	if math.Abs(c-0.85) > 1e-12 || math.Abs(eps-2*0.85*0.002/0.15) > 1e-12 {
		t.Fatalf("eps=%v c=%v", eps, c)
	}
}

// TestProfileAnswersInExactClass shows the reference for a profile
// answer is the server's combination of the query's fixpoint with the
// basis vectors, so the exact class rejects a profile answer that is
// just the global ranking.
func TestProfileAnswersInExactClass(t *testing.T) {
	ctx := context.Background()
	ds, err := datagen.Preset("dblptop", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Rates, replicaConfig())
	if err != nil {
		t.Fatal(err)
	}
	rc := newReferenceCheck(ds.Rates, eng.RatesVersion())
	rc.eng = eng
	terms := profile.BasisTerms(eng.Pin(), 0)
	if rc.basis, err = profile.BuildBasis(ctx, eng.Pin(), terms); err != nil {
		t.Fatal(err)
	}
	spec := profileSpec{mixture: map[string]float64{terms[0]: 2, terms[1]: 1}, beta: profileBeta}
	rc.profiles["p"] = spec

	it := item{q: queryVocab(eng.Index(), 2)[0], mode: "authority"}
	s := sample{class: classExact, it: it, profile: "p", version: eng.RatesVersion()}
	ref, err := rc.solve(ctx, s)
	if err != nil || ref == nil {
		t.Fatalf("reference: %v", err)
	}
	global, err := eng.Pin().RankModeCtx(ctx, ir.ParseQuery(it.q), core.ModeAuthority)
	if err != nil {
		t.Fatal(err)
	}
	render := func(scores []float64) []resultJSON {
		var out []resultJSON
		for _, r := range rank.TopK(scores, topK) {
			out = append(out, resultJSON{Node: int64(r.Node), Score: r.Score})
		}
		return out
	}
	combined := rc.basis.Combine(global.Scores, spec.mixture, spec.beta)
	if _, msg := compareExact(render(combined), ref); msg != "" {
		t.Fatalf("the server's combination was rejected: %s", msg)
	}
	if _, msg := compareExact(render(global.Scores), ref); msg == "" {
		t.Error("the global ranking passed as a profile answer")
	}
}
