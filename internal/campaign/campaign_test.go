package campaign

import (
	"bytes"
	"os"
	"testing"
)

// smallCfg is the cheapest campaign that still exercises the whole
// pipeline: one visual profile, one axis, a corpus small enough for a
// single outer-code group.
func smallCfg(workers int) Config {
	return Config{
		Profiles:    []string{"paper-small"},
		Axes:        []string{AxisLoss},
		Trials:      2,
		Seed:        42,
		CorpusBytes: 2048,
		Workers:     workers,
	}
}

// TestRunDeterministicAcrossWorkerCounts is the reproducibility contract
// behind the committed CAMPAIGN.json: the same config serializes to the
// same bytes no matter how the trials were scheduled.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	var prev []byte
	for _, workers := range []int{1, 3} {
		res, err := Run(smallCfg(workers))
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		b, err := res.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if prev != nil && !bytes.Equal(prev, b) {
			t.Fatalf("campaign JSON differs between worker counts 1 and %d", workers)
		}
		prev = b
	}
}

// TestRunSeedChangesResults guards against a seed that is silently
// ignored: different seeds must produce different trial streams.
func TestRunSeedChangesResults(t *testing.T) {
	a := smallCfg(1)
	b := smallCfg(1)
	b.Seed = 43
	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := ra.Marshal()
	bb, _ := rb.Marshal()
	if bytes.Equal(ba, bb) {
		t.Fatal("campaigns with different seeds produced identical JSON")
	}
}

// TestRunShape checks the sweep structure: every requested profile×axis
// pair yields a curve, every point carries the requested trial count,
// and the calibrated anchor (no damage) recovers fully.
func TestRunShape(t *testing.T) {
	res, err := Run(smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 1 {
		t.Fatalf("curves = %d, want 1", len(res.Curves))
	}
	c := res.Curves[0]
	if c.Profile != "paper-small" || c.Axis != AxisLoss {
		t.Fatalf("curve = %s/%s, want paper-small/%s", c.Profile, c.Axis, AxisLoss)
	}
	if len(c.Points) == 0 {
		t.Fatal("curve has no points")
	}
	for _, p := range c.Points {
		if p.Trials != 2 {
			t.Fatalf("point %g: trials = %d, want 2", p.Value, p.Trials)
		}
		if got := p.Full + p.Partial + p.Failed; got != p.Trials {
			t.Fatalf("point %g: outcomes %d do not sum to trials %d", p.Value, got, p.Trials)
		}
	}
	if p := c.Points[0]; p.Value != 0 || p.Recovered != 1 {
		t.Fatalf("undamaged anchor point = %+v, want value 0 fully recovered", p)
	}
}

// TestCorpusDeterministic pins the corpus generator: same size and seed,
// same bytes; different seed, different bytes.
func TestCorpusDeterministic(t *testing.T) {
	a, b := Corpus(4096, 7), Corpus(4096, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("Corpus is not deterministic for a fixed seed")
	}
	if len(a) != 4096 {
		t.Fatalf("len = %d, want 4096", len(a))
	}
	if bytes.Equal(a, Corpus(4096, 8)) {
		t.Fatal("Corpus ignores its seed")
	}
}

// TestTrialSeedsDistinct ensures trial seeds differ along every axis of
// their derivation — profile, axis, point, and trial index.
func TestTrialSeedsDistinct(t *testing.T) {
	seen := map[int64]string{}
	add := func(label string, s int64) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s and %s both map to %d", prev, label, s)
		}
		seen[s] = label
	}
	add("base", trialSeed(1, "p", "a", 0, 0))
	add("seed", trialSeed(2, "p", "a", 0, 0))
	add("profile", trialSeed(1, "q", "a", 0, 0))
	add("axis", trialSeed(1, "p", "b", 0, 0))
	add("point", trialSeed(1, "p", "a", 1, 0))
	add("trial", trialSeed(1, "p", "a", 0, 1))
}

// TestDiff exercises the regression gate on synthetic results: a drop
// beyond the band regresses, a drop inside it does not, a gain counts as
// improved, and unswept baseline points are skipped.
func TestDiff(t *testing.T) {
	mk := func(points ...PointResult) *Result {
		return &Result{Curves: []Curve{{Profile: "p", Axis: AxisSeverity, Points: points}}}
	}
	base := mk(
		PointResult{Value: 1, Trials: 8, Recovered: 1},
		PointResult{Value: 2, Trials: 8, Recovered: 0.5},
		PointResult{Value: 3, Trials: 8, Recovered: 0.25},
	)
	fresh := mk(
		PointResult{Value: 1, Trials: 4, Recovered: 0.5}, // anchor: no binomial slack, regression
		PointResult{Value: 3, Trials: 4, Recovered: 1},   // above band 0.1+1.96·sqrt(.25·.75/4)≈0.52: improved
	)
	rep := Diff(base, fresh, 0.1)
	if rep.Compared != 2 || rep.Skipped != 1 || rep.Improved != 1 || len(rep.Regressions) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	r := rep.Regressions[0]
	if r.Value != 1 || r.Band != 0.1 {
		t.Fatalf("regression = %+v, want anchor point with flat band 0.1", r)
	}

	// Inside the band: a 2-trial run at baseline 0.5 gets binomial slack
	// wide enough that recovering 0/2 is not yet proof of regression.
	fresh2 := mk(PointResult{Value: 2, Trials: 2, Recovered: 0})
	if rep := Diff(base, fresh2, 0.15); len(rep.Regressions) != 0 {
		t.Fatalf("2-trial drop at a 0.5 baseline should fit in the band, got %+v", rep.Regressions)
	}
}

// TestMarshalRoundTrip pins the JSON schema: the committed baseline must
// load back into an equal structure.
func TestMarshalRoundTrip(t *testing.T) {
	res, err := Run(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/campaign.json"
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("baseline does not round-trip through Marshal/LoadBaseline")
	}
	// A round-tripped baseline diffed against its own run is clean.
	if rep := Diff(back, res, 0.01); len(rep.Regressions) != 0 || rep.Skipped != 0 {
		t.Fatalf("self-diff not clean: %+v", rep)
	}
}
