package campaign

import (
	"bytes"
	"math/rand"

	"microlonys/internal/dnasim"
)

// The DNA side of the harness: the same compressed-stream-to-substrate
// sweep, expressed in the dnasim channel's failure modes. The axis values
// share the visual profiles' scale where the physics allows it — loss is
// a lost-carrier fraction on both (destroyed frames there, synthesis
// dropouts here) — and severity multiplies the channel's calibrated base
// substitution rate the way it multiplies the scanner's distortion dials.
// Dust has no DNA analogue, so the dnasim profile skips that axis.

// Base channel calibration: severity 1 must recover cleanly, like the
// visual profiles' calibrated scanners.
const (
	dnaCoverage = 14.0   // mean sequencing reads per oligo
	dnaBaseSub  = 0.01   // per-base substitution rate at severity 1
	dnaBaseDrop = 0.003  // whole-oligo dropout rate outside the loss axis
	dnaCopySub  = 0.0004 // per-base substitution applied by one re-synthesis copy
	dnaLossSub  = 0.005  // substitution rate while sweeping dropouts
)

// DNASeveritySteps returns the dnasim severity ladder the campaign
// sweeps, for tests that walk the same operating points.
func DNASeveritySteps() []float64 {
	return (&dnaRunner{}).points(AxisSeverity)
}

// DNAChannel returns the calibrated dnasim channel at a severity
// multiplier, the way the harness's severity axis builds it. The caller
// picks the Seed.
func DNAChannel(severity float64) dnasim.Channel {
	return dnasim.Channel{Coverage: dnaCoverage, SubRate: dnaBaseSub * severity, DropRate: dnaBaseDrop}
}

type dnaRunner struct {
	corpus []byte
	oligos []dnasim.Oligo
}

func newDNARunner(cfg Config) (*dnaRunner, error) {
	corpus := Corpus(cfg.CorpusBytes, cfg.Seed)
	return &dnaRunner{corpus: corpus, oligos: dnasim.Encode(corpus)}, nil
}

func (r *dnaRunner) axes(requested []string) []string {
	var out []string
	for _, a := range requested {
		if a != AxisDust && a != AxisSalvage { // no dust and no sheet bag on a DNA pool
			out = append(out, a)
		}
	}
	return out
}

func (r *dnaRunner) points(axis string) []float64 {
	switch axis {
	case AxisSeverity:
		return []float64{0.5, 1, 1.25, 1.5, 2, 3}
	case AxisLoss:
		return []float64{0, 0.05, 0.10, 0.15, 0.25}
	case AxisGenerations:
		return []float64{0, 1, 2, 3, 4}
	}
	return nil
}

func (r *dnaRunner) trial(axis string, value float64, rng *rand.Rand, _ *bytes.Buffer) outcome {
	pool := r.oligos
	ch := dnasim.Channel{Coverage: dnaCoverage, SubRate: dnaBaseSub, DropRate: dnaBaseDrop}

	switch axis {
	case AxisSeverity:
		ch.SubRate = dnaBaseSub * value
	case AxisLoss:
		ch.SubRate = dnaLossSub
		ch.DropRate = value
	case AxisGenerations:
		// Each re-synthesis copy substitutes bases in the pool itself —
		// unlike read noise, these errors are shared by every read of the
		// oligo, so consensus cannot vote them away and the column code
		// must absorb them.
		for g := 0; g < int(value); g++ {
			pool = mutatePool(pool, dnaCopySub, rng)
		}
	}
	ch.Seed = rng.Int63() | 1

	got, st, err := dnasim.Decode(ch.Sequence(pool))
	o := outcome{}
	if st != nil {
		// The closest frame analogue on DNA is the oligo: dropped oligos
		// are the "frames" the erasure code had to supply (or could not).
		o.framesFailed = st.OligosDropped
	}
	switch {
	case err != nil:
		o.failed = true
	case bytes.Equal(got, r.corpus):
		o.full = true
	default:
		o.partial = true
		o.bytesLost = diffBytes(got, r.corpus)
	}
	return o
}

// mutatePool applies one synthesis-copy generation: independent per-base
// substitutions across every oligo. A substitution may create a
// homopolymer the rotating code forbids — sequencing reads of that oligo
// then fail to decode, which is exactly the amplification-damage story.
func mutatePool(pool []dnasim.Oligo, rate float64, rng *rand.Rand) []dnasim.Oligo {
	const bases = "ACGT"
	out := make([]dnasim.Oligo, len(pool))
	for i, o := range pool {
		b := []byte(o)
		for j := range b {
			if rng.Float64() < rate {
				b[j] = bases[rng.Intn(4)]
			}
		}
		out[i] = dnasim.Oligo(b)
	}
	return out
}
