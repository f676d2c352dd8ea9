package campaign

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"microlonys/internal/core"
	"microlonys/internal/emblem"
	"microlonys/internal/faultinject"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// The visual-media side of the harness: scaled-down counterparts of the
// paper's three §4 profiles. The full-size profiles render multi-megapixel
// frames — far too slow for hundreds of randomized trials — so each
// campaign profile keeps its parent's distortion character (rotation and
// photometry are resolution-independent; the pixel-denominated dials are
// re-calibrated to the smaller module size) on a small emblem layout, with
// severity 1 calibrated to restore cleanly, exactly like the parents.

// campaignSheetGroups is the per-sheet capacity in outer-code groups: two
// groups per sheet splits the default corpus across carriers, so the loss
// axis exercises the per-sheet accounting.
const campaignSheetGroups = 2

// PaperSmall is the campaign's laser-printed-paper profile: the Paper()
// distortion family on a 100×80-module emblem at 3 px/module.
func PaperSmall() media.Profile {
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 4}
	return media.Profile{
		Name:   "paper-small",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		WriteBitonal: true,
		Layout:       l,
		Scanner: media.Distortions{
			RotationDeg: 0.25,
			RowJitterPx: 0.8,
			BlurRadius:  1,
			Fade:        0.08,
			Gradient:    0.3,
			Noise:       5,
			DustSpecks:  3,
		},
	}
}

// MicrofilmSmall is the campaign's 16 mm-microfilm profile: bitonal
// scan-back with film fade, dust and a scratch budget, scanned at a
// slightly higher resolution than written (the archive-scanner resample).
func MicrofilmSmall() media.Profile {
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 4}
	return media.Profile{
		Name:   "microfilm-small",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW() * 5 / 4, ScanH: l.ImageH() * 5 / 4,
		WriteBitonal: true,
		ScanBitonal:  true,
		Layout:       l,
		Scanner: media.Distortions{
			RotationDeg: 0.2,
			BarrelK:     0.0015,
			RowJitterPx: 0.5,
			BlurRadius:  1,
			Fade:        0.12,
			Noise:       4,
			DustSpecks:  2,
			Scratches:   1,
		},
	}
}

// visualRunner holds one profile's archived corpus; trials clone it.
type visualRunner struct {
	profile   media.Profile
	corpus    []byte
	arch      *core.Archived
	archCat   *core.Archived // catalog-enabled twin for the salvage axis
	bootstrap string
}

func newVisualRunner(p media.Profile, cfg Config) (*visualRunner, error) {
	corpus := Corpus(cfg.CorpusBytes, cfg.Seed)
	opts := core.DefaultOptions(p)
	// Raw archives are the Partial-accounting workload: a compressed
	// stream with a zero-filled hole still fails at DBDecode, so the
	// partial/full distinction would collapse to pass/fail.
	opts.Compress = false
	opts.Workers = 1
	opts.SheetFrames = campaignSheetGroups * (opts.GroupData + mocoder.GroupParity)
	arch, err := core.CreateArchive(corpus, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: archiving %s corpus: %w", p.Name, err)
	}
	// The salvage axis restores from an unordered sheet bag with no
	// bootstrap text, which needs the self-describing catalog emblems:
	// archive a catalog-enabled twin (one extra reserved frame per sheet).
	optsCat := opts
	optsCat.Catalog = true
	optsCat.SheetFrames++
	archCat, err := core.CreateArchive(corpus, optsCat)
	if err != nil {
		return nil, fmt.Errorf("campaign: archiving %s catalog corpus: %w", p.Name, err)
	}
	return &visualRunner{profile: p, corpus: corpus, arch: arch, archCat: archCat,
		bootstrap: arch.BootstrapText}, nil
}

func (r *visualRunner) axes(requested []string) []string {
	return append([]string(nil), requested...) // visual media support every axis
}

func (r *visualRunner) points(axis string) []float64 {
	switch axis {
	case AxisSeverity:
		return []float64{0.5, 1, 1.25, 1.5, 2, 3}
	case AxisDust:
		return []float64{0, 16, 32, 48, 64, 96}
	case AxisLoss:
		return []float64{0, 0.05, 0.10, 0.15, 0.25}
	case AxisGenerations:
		return []float64{0, 1, 2, 3, 4}
	case AxisSalvage:
		return []float64{0, 0.05, 0.10, 0.15, 0.25}
	}
	return nil
}

// genScanner is the scanner model a generational copy runs through: a
// gentler pass than the final archive scan (a copy stand, not a battered
// ADF), so generation loss accumulates from quantisation and residual
// noise rather than cliffing on the first copy's blur.
const genScannerScale = 0.6

// trial clones the archived volume, applies the axis's damage at the
// given value, and scores a Partial restore.
func (r *visualRunner) trial(axis string, value float64, rng *rand.Rand, out *bytes.Buffer) outcome {
	if axis == AxisSalvage {
		return r.salvageTrial(value, rng, out)
	}
	vol := r.arch.Volume.Clone()
	scanner := r.profile.Scanner

	switch axis {
	case AxisSeverity:
		scanner = scanner.Scale(value)
	case AxisDust:
		if specks := int(value); specks > 0 {
			d := media.Distortions{DustSpecks: specks, DustMaxRadius: 5, Scratches: specks / 16}
			for i, n := 0, vol.FrameCount(); i < n; i++ {
				s, j, _ := vol.Locate(i)
				d.Seed = rng.Int63() | 1
				if err := vol.Damage(s, j, d); err != nil {
					return outcome{failed: true}
				}
			}
		}
	case AxisLoss:
		n := vol.FrameCount()
		kill := int(math.Round(value * float64(n)))
		for _, i := range rng.Perm(n)[:kill] {
			s, j, _ := vol.Locate(i)
			if err := vol.Destroy(s, j); err != nil {
				return outcome{failed: true}
			}
		}
	case AxisGenerations:
		for g := 0; g < int(value); g++ {
			gen := scanner.Scale(genScannerScale)
			gen.Seed = rng.Int63() | 1
			vol.SetScanner(gen)
			var err error
			if vol, err = vol.Reprint(); err != nil {
				return outcome{failed: true}
			}
		}
	}

	// Every trial scans through fresh, trial-private scanner noise.
	scanner.Seed = rng.Int63() | 1
	vol.SetScanner(scanner)

	out.Reset()
	st, err := core.RestoreToWriter(out, vol, r.bootstrap,
		core.RestoreOptions{Mode: core.RestoreNative, Workers: 1, Partial: true})
	o := outcome{}
	if st != nil {
		o.groupsLost = st.GroupsLost
		o.bytesLost = st.BytesLost
		o.framesFailed = st.FramesFailed
	}
	switch {
	case err != nil:
		o.failed = true
	case bytes.Equal(out.Bytes(), r.corpus):
		o.full = true
	default:
		o.partial = true
		if o.bytesLost == 0 {
			// The restore claimed clean output that differs from the
			// corpus — count the divergence so the curve records it.
			o.bytesLost = diffBytes(out.Bytes(), r.corpus)
		}
	}
	return o
}

// salvageTrial is the disaster-drill axis: the catalog-enabled twin's
// sheets are pulled into an unordered bag — value sets the fraction of
// frames destroyed across it, a faultinject schedule shuffles the bag,
// duplicates one sheet and tears another — then core.Salvage restores
// with no bootstrap text and the output is scored against the corpus.
func (r *visualRunner) salvageTrial(value float64, rng *rand.Rand, out *bytes.Buffer) outcome {
	vol := r.archCat.Volume.Clone()
	scanner := r.profile.Scanner
	scanner.Seed = rng.Int63() | 1
	vol.SetScanner(scanner)

	bag := make([]*media.Medium, vol.Sheets())
	for s := range bag {
		m, err := vol.Sheet(s)
		if err != nil {
			return outcome{failed: true}
		}
		bag[s] = m
	}
	sched := faultinject.New(rng.Int63() | 1)
	if _, err := sched.DestroyFraction(bag, value); err != nil {
		return outcome{failed: true}
	}
	sched.Shuffle(bag)
	bag = sched.Duplicate(bag, 1)

	out.Reset()
	rep, err := core.SalvageTo(out, bag, core.SalvageOptions{Mode: core.RestoreNative, Workers: 1})
	o := outcome{}
	if rep != nil {
		o.groupsLost = rep.Stats.GroupsLost
		o.bytesLost = rep.Stats.BytesLost
		o.framesFailed = rep.Stats.FramesFailed
	}
	switch {
	case err != nil:
		o.failed = true
	case bytes.Equal(out.Bytes(), r.corpus):
		o.full = true
	default:
		o.partial = true
		if o.bytesLost == 0 {
			o.bytesLost = diffBytes(out.Bytes(), r.corpus)
		}
	}
	return o
}

// diffBytes counts positions where a and b differ, plus any length gap.
func diffBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := len(a) + len(b) - 2*n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
