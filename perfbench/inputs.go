package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"

	"microlonys"
	"microlonys/internal/emblem"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/tpch"
)

// benchProfile is the bench_test.go benchProfile geometry (120×90 modules
// at 3 px) pinned to the class where Volume.Reprint is pixel-faithful: no
// writer distortion, a non-bitonal writer and scanner, and a scan the size
// of the frame. A reprinted copy read with a distortion-free scanner then
// hands the decoder exactly the pixels the scanner model would.
func benchProfile() media.Profile {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	return media.Profile{
		Name:   "perfbench",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: media.Distortions{
			RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2,
		},
	}
}

// checkFaithful rejects a profile on which Reprint would not reproduce the
// scanner's output pixel for pixel.
func checkFaithful(p media.Profile) error {
	switch {
	case !p.Writer.IsZero():
		return fmt.Errorf("profile %q: writer distortion breaks pre-scan equivalence", p.Name)
	case p.WriteBitonal || p.ScanBitonal:
		return fmt.Errorf("profile %q: bitonal quantisation breaks pre-scan equivalence", p.Name)
	case p.ScanW != p.FrameW || p.ScanH != p.FrameH:
		return fmt.Errorf("profile %q: resampled scans break pre-scan equivalence", p.Name)
	}
	return nil
}

// archiveOptions is the archive configuration every workload uses:
// DBCoder-compressed, a catalog and an index slot on every 22-frame sheet
// (one 17+3 group plus the two reserved slots).
func archiveOptions() microlonys.Options {
	opts := microlonys.DefaultOptions(benchProfile())
	opts.SheetFrames = 22
	opts.Catalog = true
	opts.Index = true
	return opts
}

// tpchDump renders the TPC-H database at scale factor sf as a SQL dump.
func tpchDump(sf float64, seed int64) []byte {
	return sqldump.Dump(tpch.Generate(sf, seed))
}

// prescan plays the scanner once over every frame: the reprinted copy,
// read with a distortion-free scanner, decodes exactly what a scan of v
// would, without running the scanner model on every restore.
func prescan(v *media.Volume) (*media.Volume, error) {
	if err := checkFaithful(v.Profile()); err != nil {
		return nil, err
	}
	pre, err := v.Reprint()
	if err != nil {
		return nil, fmt.Errorf("pre-scan: %w", err)
	}
	pre.SetScanner(media.Distortions{})
	return pre, nil
}

// damage destroys one or two payload frames on a seeded share of sheets.
// Two frames per sheet never exceed one group's three parity frames, so
// every group stays recoverable; catalog and index slots are spared.
func damage(v *media.Volume, rng *rand.Rand, share float64) error {
	reserved := v.ReservedSlots()
	for s := 0; s < v.Sheets(); s++ {
		m, err := v.Sheet(s)
		if err != nil {
			return err
		}
		slots := m.FrameCount() - reserved
		if slots < 2 || rng.Float64() >= share {
			continue
		}
		for _, k := range rng.Perm(slots)[:1+rng.Intn(2)] {
			if err := v.Destroy(s, reserved+k); err != nil {
				return err
			}
		}
	}
	return nil
}

// guard is the pre-scan equivalence check: the scanner-included volume and
// its pre-scanned copy must restore to the same bytes with the same
// failure, correction and recovery tallies and group reports. It returns
// the pre-scanned restore's stats.
func guard(scanned, pre *media.Volume, bootstrapText string, want []byte) (*microlonys.RestoreStats, error) {
	var a, b bytes.Buffer
	sa, err := microlonys.RestoreTo(&a, scanned, bootstrapText, microlonys.RestoreOptions{})
	if err != nil {
		return nil, fmt.Errorf("guard: scanner-included restore: %w", err)
	}
	sb, err := microlonys.RestoreTo(&b, pre, bootstrapText, microlonys.RestoreOptions{})
	if err != nil {
		return nil, fmt.Errorf("guard: pre-scanned restore: %w", err)
	}
	switch {
	case !bytes.Equal(a.Bytes(), want) || !bytes.Equal(b.Bytes(), want):
		return nil, fmt.Errorf("guard: restored bytes differ from the input")
	case sa.FramesScanned != sb.FramesScanned, sa.FramesFailed != sb.FramesFailed,
		sa.BytesCorrected != sb.BytesCorrected, sa.GroupsRecovered != sb.GroupsRecovered,
		!reflect.DeepEqual(sa.Groups, sb.Groups), !reflect.DeepEqual(sa.Sheets, sb.Sheets):
		return nil, fmt.Errorf("guard: pre-scanned restore diverges: scanned %+v, pre-scanned %+v", *sa, *sb)
	}
	return sb, nil
}

// salvageBag is the disaster-path input: every sheet of v in a seeded
// order, with one sheet present twice. Clones share pixels, so a bag costs
// no frame copies.
func salvageBag(v *media.Volume, rng *rand.Rand) ([]*media.Medium, error) {
	bag := make([]*media.Medium, 0, v.Sheets()+1)
	for s := 0; s < v.Sheets(); s++ {
		m, err := v.Sheet(s)
		if err != nil {
			return nil, err
		}
		bag = append(bag, m.Clone())
	}
	bag = append(bag, bag[rng.Intn(len(bag))].Clone())
	rng.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
	return bag, nil
}

// lean drops the written (scanner-side) volume from an archive, keeping
// what restores and checks need. Untraced runs hold only pre-scanned
// volumes while they measure.
func lean(a *microlonys.Archived) *microlonys.Archived {
	return &microlonys.Archived{BootstrapText: a.BootstrapText, Manifest: a.Manifest, Options: a.Options}
}
