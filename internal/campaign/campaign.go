// Package campaign is the statistical damage-torture harness: it turns
// the paper's durability claims — survive lost carriers, scanner
// distortion, generational copies — into measured recovery-probability
// curves instead of hand-picked anecdotes.
//
// A campaign archives a deterministic corpus once per media profile, then
// runs randomized trials along damage axes: each trial clones the
// archived volume, applies parameterized damage (distortion severity,
// dust/tear density, lost-carrier fraction, or scan→print→scan
// generational copies), restores with RestoreOptions.Partial at core
// parallelism 1 into the output buffer of the slots.ForEach worker that
// runs it (the core pools its scan scratch, so trials reuse it), and
// scores the outcome — full recovery, partial (with the stats'
// GroupsLost/BytesLost accounting), or failure.
// The internal/dnasim substrate runs the same sweeps through its
// sequencing channel model, so every media profile of the ULE stack gets
// a curve.
//
// Everything derives from one seed: trial damage placement, scanner noise
// (via the media package's Scanner.Seed hook) and sequencing randomness
// are all keyed by (seed, profile, axis, point, trial), so a campaign is
// reproducible bit-for-bit at any worker count — the committed
// CAMPAIGN.json baseline regenerates exactly from cmd/campaign with the
// same flags. See Diff for the tolerance-band regression gate.
package campaign

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"microlonys/internal/slots"
)

// Config parameterizes one campaign run.
type Config struct {
	// Profiles selects the media profiles to sweep (see ProfileNames);
	// empty means DefaultProfiles.
	Profiles []string
	// Axes selects the damage axes to sweep (see AxisNames); empty means
	// DefaultAxes. Axes a profile cannot express (dust on DNA) are
	// skipped for that profile.
	Axes []string
	// Trials is the randomized trials per axis point (default 8).
	Trials int
	// Seed keys every random draw of the campaign (default 1).
	Seed int64
	// CorpusBytes sizes the archived corpus (default 16384).
	CorpusBytes int
	// Workers bounds the trial-level fan-out (0 = GOMAXPROCS). Results
	// are identical at any setting.
	Workers int
}

// Damage axes.
const (
	AxisSeverity    = "severity"    // scanner-distortion multiplier (1 = the profile's calibration)
	AxisDust        = "dust"        // dust specks (+ a scratch per 16) added to every frame
	AxisLoss        = "loss"        // fraction of frames destroyed outright (lost carriers)
	AxisGenerations = "generations" // scan→print→scan copies before restoration
	AxisSalvage     = "salvage"     // frame-destruction fraction on a shuffled, bootstrap-free sheet bag (core.Salvage)
)

// DefaultAxes returns every damage axis in sweep order.
func DefaultAxes() []string {
	return []string{AxisSeverity, AxisDust, AxisLoss, AxisGenerations, AxisSalvage}
}

// PointResult aggregates one axis point's trials.
type PointResult struct {
	Value float64 `json:"value"` // the axis value (multiplier, specks, fraction, copies)

	Trials  int `json:"trials"`
	Full    int `json:"full"`    // bit-exact recovery
	Partial int `json:"partial"` // restored with losses (Partial accounting)
	Failed  int `json:"failed"`  // restoration error

	// Recovered is Full/Trials — the recovery probability estimate the
	// curve plots and the regression gate compares.
	Recovered float64 `json:"recovered_fraction"`

	MeanGroupsLost   float64 `json:"mean_groups_lost"`
	MeanBytesLost    float64 `json:"mean_bytes_lost"`
	MeanFramesFailed float64 `json:"mean_frames_failed"`
}

// Curve is one profile's recovery-rate curve along one axis.
type Curve struct {
	Profile string        `json:"profile"`
	Axis    string        `json:"axis"`
	Points  []PointResult `json:"points"`
}

// Result is a complete campaign, the shape CAMPAIGN.json commits.
type Result struct {
	Description string   `json:"description"`
	Command     string   `json:"command"`
	Seed        int64    `json:"seed"`
	Trials      int      `json:"trials"`
	CorpusBytes int      `json:"corpus_bytes"`
	Profiles    []string `json:"profiles"`
	Axes        []string `json:"axes"`
	Curves      []Curve  `json:"curves"`
}

// outcome is one trial's score.
type outcome struct {
	full, partial, failed bool
	groupsLost            int
	bytesLost             int
	framesFailed          int
}

// runner executes one profile's trials. Implementations must be safe to
// call from multiple goroutines concurrently (they treat their archived
// state as read-only and thread all mutation through per-trial clones).
type runner interface {
	// axes filters the requested axes to the ones the profile supports.
	axes(requested []string) []string
	// points returns the sweep values for a supported axis.
	points(axis string) []float64
	// trial runs one randomized trial and scores it. rng is the trial's
	// private randomness; out is the calling worker's reusable output
	// buffer.
	trial(axis string, value float64, rng *rand.Rand, out *bytes.Buffer) outcome
}

// normalize fills Config defaults.
func (c Config) normalize() Config {
	if len(c.Profiles) == 0 {
		c.Profiles = DefaultProfiles()
	}
	if len(c.Axes) == 0 {
		c.Axes = DefaultAxes()
	}
	if c.Trials <= 0 {
		c.Trials = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CorpusBytes <= 0 {
		c.CorpusBytes = 16384
	}
	return c
}

// Run executes the campaign: every profile × supported axis × sweep point
// × trial, one slots.ForEach item each at Workers workers, aggregated
// into curves in deterministic order. Each worker reuses one output
// buffer across its trials; a trial holds no frame slot itself, only the
// frame tasks of its restore do.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	for _, a := range cfg.Axes {
		if !validAxis(a) {
			return nil, fmt.Errorf("campaign: unknown axis %q", a)
		}
	}

	// Build every runner up front (each archives or encodes its corpus
	// once; trials only clone).
	runners := make([]runner, len(cfg.Profiles))
	for i, name := range cfg.Profiles {
		r, err := newRunner(name, cfg)
		if err != nil {
			return nil, err
		}
		runners[i] = r
	}

	// Enumerate the trial jobs with their result slots, then fan out.
	type job struct {
		runner    runner
		axis      string
		value     float64
		seed      int64
		curve, pt int
		trial     int
	}
	var curves []Curve
	var jobs []job
	for pi, name := range cfg.Profiles {
		r := runners[pi]
		for _, axis := range r.axes(cfg.Axes) {
			ci := len(curves)
			pts := r.points(axis)
			c := Curve{Profile: name, Axis: axis, Points: make([]PointResult, len(pts))}
			for vi, v := range pts {
				c.Points[vi].Value = v
				c.Points[vi].Trials = cfg.Trials
				for t := 0; t < cfg.Trials; t++ {
					jobs = append(jobs, job{
						runner: r, axis: axis, value: v,
						seed:  trialSeed(cfg.Seed, name, axis, vi, t),
						curve: ci, pt: vi, trial: t,
					})
				}
			}
			curves = append(curves, c)
		}
	}

	outcomes := make([]outcome, len(jobs))
	outs := make([]bytes.Buffer, slots.Workers(cfg.Workers, len(jobs))) // per worker: reused across trials
	if err := slots.ForEach(context.Background(), cfg.Workers, len(jobs), func(_ context.Context, worker, i int) error {
		j := &jobs[i]
		outcomes[i] = j.runner.trial(j.axis, j.value, rand.New(rand.NewSource(j.seed)), &outs[worker])
		return nil
	}); err != nil {
		return nil, err
	}

	// Aggregate in job order — deterministic at any worker count because
	// each outcome lands in its own slot.
	for i, j := range jobs {
		p := &curves[j.curve].Points[j.pt]
		o := outcomes[i]
		switch {
		case o.full:
			p.Full++
		case o.failed:
			p.Failed++
		default:
			p.Partial++
		}
		p.MeanGroupsLost += float64(o.groupsLost)
		p.MeanBytesLost += float64(o.bytesLost)
		p.MeanFramesFailed += float64(o.framesFailed)
	}
	for ci := range curves {
		for pi := range curves[ci].Points {
			p := &curves[ci].Points[pi]
			n := float64(p.Trials)
			p.Recovered = float64(p.Full) / n
			p.MeanGroupsLost /= n
			p.MeanBytesLost /= n
			p.MeanFramesFailed /= n
		}
	}

	return &Result{
		Description: "Recovery-probability curves from randomized damage trials: per axis point, the fraction of trials restored bit-exact (recovered_fraction), restored with Partial-mode losses (partial), or failed, with mean GroupsLost/BytesLost from the restore stats. Reproducible bit-for-bit with the same seed.",
		Seed:        cfg.Seed,
		Trials:      cfg.Trials,
		CorpusBytes: cfg.CorpusBytes,
		Profiles:    append([]string(nil), cfg.Profiles...),
		Axes:        append([]string(nil), cfg.Axes...),
		Curves:      curves,
	}, nil
}

func validAxis(a string) bool {
	for _, x := range DefaultAxes() {
		if a == x {
			return true
		}
	}
	return false
}

// trialSeed derives one trial's private seed from the campaign seed and
// the trial's coordinates, via FNV-1a — stable across runs and platforms.
func trialSeed(seed int64, profile, axis string, point, trial int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d", seed, profile, axis, point, trial)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}

// Corpus returns the campaign's deterministic archive corpus: SQL-dump-
// shaped text (the workload the paper archives) generated from the seed.
func Corpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed ^ 0x636f7270)) // "corp"
	buf := make([]byte, 0, n+64)
	for i := 0; len(buf) < n; i++ {
		buf = append(buf,
			fmt.Sprintf("INSERT INTO lineitem VALUES (%d, %d, %d, %d, %d.%02d, '19%02d-%02d-%02d');\n",
				i, rng.Intn(200000), rng.Intn(10000), 1+rng.Intn(50),
				rng.Intn(60000), rng.Intn(100),
				92+rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(28))...)
	}
	return buf[:n]
}

// sortedCopy returns a sorted copy (diff reporting wants stable order).
func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
