package media

import (
	"context"
	"fmt"
	"sync"

	"microlonys/internal/slots"
	"microlonys/raster"
)

// Volume is an ordered set of Medium sheets — the multi-carrier archive of
// the paper's §5 arithmetic, where terabytes spread over thousands of film
// reels and paper pages. Each sheet is one physical carrier (a page bundle,
// a film reel) cut to a per-carrier frame capacity; frames are addressed
// globally in write order, `(sheet, index)` locally. A Volume with one
// unbounded sheet behaves exactly like a bare Medium, which remains the
// single-carrier special case throughout the API.
//
// Damage models extend from frames to carriers: Damage and Destroy act on
// one frame of one sheet, DestroySheet loses an entire carrier — the
// failure mode (a burnt reel, a lost folder) the archive-side group
// sharding exists for, since the place stage never lets an outer-code
// group straddle a sheet boundary.
type Volume struct {
	profile     Profile
	sheetFrames int // frames per sheet; 0 = one unbounded sheet
	catalog     bool
	index       bool
	sheets      []*Medium
	fog         frame // the placeholder every reserved position shares
}

// NewVolume returns an empty volume whose sheets hold at most sheetFrames
// frames each. sheetFrames <= 0 selects one unbounded sheet — the
// single-Medium layout every pre-Volume archive used.
func NewVolume(p Profile, sheetFrames int) *Volume {
	if sheetFrames < 0 {
		sheetFrames = 0
	}
	return &Volume{profile: p, sheetFrames: sheetFrames}
}

// VolumeOf wraps an existing medium as a single-sheet volume, so
// medium-level callers can use the volume-level pipelines unchanged.
func VolumeOf(m *Medium) *Volume {
	return &Volume{profile: m.Profile(), sheets: []*Medium{m}}
}

// Profile returns the volume's media profile.
func (v *Volume) Profile() Profile { return v.profile }

// SheetFrames returns the per-sheet frame capacity (0 = unbounded).
func (v *Volume) SheetFrames() int { return v.sheetFrames }

// Sheets returns the number of sheets written so far.
func (v *Volume) Sheets() int { return len(v.sheets) }

// EnableCatalog reserves the first frame of every sheet for a
// self-describing catalog emblem (internal/catalog). Each time a sheet is
// cut, a placeholder frame is appended in slot 0 — counted against the
// sheet capacity like any frame — and back-patched via FillCatalog once
// the whole volume inventory is known. Must be called before any writes.
func (v *Volume) EnableCatalog() error {
	if len(v.sheets) > 0 {
		return fmt.Errorf("media: EnableCatalog on a volume with %d written sheets", len(v.sheets))
	}
	if v.sheetFrames > 0 && v.sheetFrames <= v.reservedIf(v.index)+1-boolInt(v.catalog) {
		return fmt.Errorf("media: reserved slots would consume the whole %d-frame sheet", v.sheetFrames)
	}
	v.catalog = true
	return nil
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// CatalogEnabled reports whether sheets reserve a catalog slot.
func (v *Volume) CatalogEnabled() bool { return v.catalog }

// EnableIndex reserves one frame of every sheet for a selective-restore
// index emblem (internal/archindex) — slot 1 when a catalog slot is also
// reserved, slot 0 otherwise. Like the catalog slot it is counted against
// the sheet capacity and back-patched via FillIndex once placement is
// done. Must be called before any writes.
func (v *Volume) EnableIndex() error {
	if len(v.sheets) > 0 {
		return fmt.Errorf("media: EnableIndex on a volume with %d written sheets", len(v.sheets))
	}
	if v.sheetFrames > 0 && v.sheetFrames <= v.reservedIf(true) {
		return fmt.Errorf("media: reserved slots would consume the whole %d-frame sheet", v.sheetFrames)
	}
	v.index = true
	return nil
}

// ReservedSlots returns how many leading frames of every sheet are
// reserved for out-of-band emblems (catalog, index).
func (v *Volume) ReservedSlots() int { return v.reservedIf(v.index) }

func (v *Volume) reservedIf(index bool) int {
	n := 0
	if v.catalog {
		n++
	}
	if index {
		n++
	}
	return n
}

// IndexSlot returns the local slot index frames occupy on every sheet.
func (v *Volume) IndexSlot() int {
	if v.catalog {
		return 1
	}
	return 0
}

// FillIndex back-patches sheet s's reserved index slot with the rendered
// index emblem. The written frame is byte-identical to one written in
// sequence at that slot (see Medium.WriteAt).
func (v *Volume) FillIndex(s int, img *raster.Gray) error {
	if !v.index {
		return fmt.Errorf("media: FillIndex on a volume without index slots")
	}
	m, err := v.Sheet(s)
	if err != nil {
		return err
	}
	return m.WriteAt(v.IndexSlot(), img)
}

// FillCatalog back-patches sheet s's reserved first frame with the
// rendered catalog emblem. The written frame is byte-identical to one
// written in sequence at that slot (see Medium.WriteAt).
func (v *Volume) FillCatalog(s int, img *raster.Gray) error {
	if !v.catalog {
		return fmt.Errorf("media: FillCatalog on a volume without catalog slots")
	}
	m, err := v.Sheet(s)
	if err != nil {
		return err
	}
	return m.WriteAt(0, img)
}

// cutSheet opens a fresh sheet, reserving its catalog and index slots when
// enabled, to be filled by FillCatalog/FillIndex after placement.
func (v *Volume) cutSheet() {
	m := New(v.profile)
	v.sheets = append(v.sheets, m)
	v.reserve(m, v.ReservedSlots())
}

// reserve appends n positions to sheet m, each holding the volume's fogged
// placeholder until it is filled: unreadable if never filled, so the
// restore side treats it like any destroyed frame. A stored frame is never
// written, so all of them share one placeholder, and so do the frames
// Destroy fogs on m.
func (v *Volume) reserve(m *Medium, n int) {
	if v.fog.bits == nil {
		v.fog = fogged(v.profile)
	}
	m.fog = v.fog
	for ; n > 0; n-- {
		m.frames = append(m.frames, v.fog)
	}
}

// Sheet returns sheet s.
func (v *Volume) Sheet(s int) (*Medium, error) {
	if s < 0 || s >= len(v.sheets) {
		return nil, fmt.Errorf("media: sheet %d out of range (%d sheets)", s, len(v.sheets))
	}
	return v.sheets[s], nil
}

// FrameCount returns the total frames across all sheets.
func (v *Volume) FrameCount() int {
	n := 0
	for _, s := range v.sheets {
		n += s.FrameCount()
	}
	return n
}

// Locate maps a global frame index to its (sheet, local index) address.
func (v *Volume) Locate(i int) (sheet, index int, err error) {
	if i >= 0 {
		rest := i
		for s, m := range v.sheets {
			if rest < m.FrameCount() {
				return s, rest, nil
			}
			rest -= m.FrameCount()
		}
	}
	return 0, 0, fmt.Errorf("media: frame %d out of range (%d frames)", i, v.FrameCount())
}

// SheetStart returns the global index of sheet s's first frame.
func (v *Volume) SheetStart(s int) (int, error) {
	if s < 0 || s >= len(v.sheets) {
		return 0, fmt.Errorf("media: sheet %d out of range (%d sheets)", s, len(v.sheets))
	}
	start := 0
	for _, m := range v.sheets[:s] {
		start += m.FrameCount()
	}
	return start, nil
}

// room returns the open sheet's remaining capacity, cutting the first
// sheet on an empty volume. With unbounded sheets the room is unlimited.
func (v *Volume) room() int {
	if len(v.sheets) == 0 {
		v.cutSheet()
	}
	if v.sheetFrames <= 0 {
		return int(^uint(0) >> 1) // unbounded
	}
	return v.sheetFrames - v.sheets[len(v.sheets)-1].FrameCount()
}

// Write appends frames in order, filling the open sheet and cutting a new
// one whenever it reaches the per-sheet capacity. Frame dimensions are
// validated against the profile by the underlying Medium.Write.
func (v *Volume) Write(frames []*raster.Gray) error {
	for len(frames) > 0 {
		room := v.room()
		if room == 0 {
			v.cutSheet()
			continue
		}
		n := len(frames)
		if n > room {
			n = room
		}
		if err := v.sheets[len(v.sheets)-1].Write(frames[:n]); err != nil {
			return err
		}
		frames = frames[n:]
	}
	return nil
}

// ReserveGroup reserves a run of n positions on a single sheet, cutting a
// new sheet first if the open one lacks room, and returns that sheet and
// the run's first local index. This is the carrier-loss guarantee of the
// place stage: an outer-code group never straddles a sheet, so losing a
// whole carrier costs only the groups on it. Medium.WriteAt fills the
// positions in any order, concurrently too while nothing else writes to
// the volume, since each write stores only its own position; until then
// each holds a fogged placeholder.
func (v *Volume) ReserveGroup(n int) (*Medium, int, error) {
	usable := v.sheetFrames
	if usable > 0 {
		usable -= v.ReservedSlots() // leading slots belong to the catalog/index
	}
	if v.sheetFrames > 0 && n > usable {
		return nil, 0, fmt.Errorf("media: group of %d frames exceeds sheet capacity %d", n, usable)
	}
	if v.room() < n {
		v.cutSheet()
	}
	m := v.sheets[len(v.sheets)-1]
	first := len(m.frames)
	v.reserve(m, n)
	return m, first, nil
}

// WriteGroup writes frames as one indivisible run on a single sheet: the
// run ReserveGroup reserves, filled in order.
func (v *Volume) WriteGroup(frames []*raster.Gray) error {
	m, first, err := v.ReserveGroup(len(frames))
	if err != nil {
		return err
	}
	for i, f := range frames {
		if err := m.WriteAt(first+i, f); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns an independent volume: each sheet is cloned (sharing
// stored frames — see Medium.Clone), so damaging or reprinting the clone
// never touches the original. One archive can feed many damage trials.
func (v *Volume) Clone() *Volume {
	out := &Volume{profile: v.profile, sheetFrames: v.sheetFrames, catalog: v.catalog, index: v.index, fog: v.fog}
	out.sheets = make([]*Medium, len(v.sheets))
	for i, m := range v.sheets {
		out.sheets[i] = m.Clone()
	}
	return out
}

// SetScanner replaces the scanner distortion model on the volume and
// every sheet — the campaign harness's severity and per-trial-seed hook.
func (v *Volume) SetScanner(d Distortions) {
	v.profile.Scanner = d
	for _, m := range v.sheets {
		m.SetScanner(d)
	}
}

// Reprint plays one generational copy of every sheet (see Medium.Reprint),
// preserving the sheet boundaries so carrier-level damage still maps one
// to one after the copy. Every frame of every sheet scans as one task on a
// GOMAXPROCS-wide pool, holding a process-wide frame slot (slots.Run) and
// scan scratch borrowed for it only while it computes; each frame lands at
// its own index, so the copy is the same at any GOMAXPROCS. A panic in a
// frame's scan is re-raised on the caller's goroutine.
func (v *Volume) Reprint() (*Volume, error) {
	out := &Volume{profile: v.profile, sheetFrames: v.sheetFrames, catalog: v.catalog, index: v.index}
	out.sheets = make([]*Medium, len(v.sheets))
	type address struct{ sheet, index int }
	var plan []address
	for s, m := range v.sheets {
		out.sheets[s] = &Medium{profile: m.profile, frames: make([]frame, len(m.frames))}
		for i := range m.frames {
			plan = append(plan, address{s, i})
		}
	}
	err := slots.ForEach(context.TODO(), 0, len(plan), func(ctx context.Context, _, k int) error {
		f := plan[k]
		var err error
		if serr := slots.Run(ctx, func() {
			s := scanPool.Get().(*ScanScratch)
			err = v.sheets[f.sheet].reprintFrame(s, out.sheets[f.sheet], f.index)
			scanPool.Put(s)
		}); serr != nil {
			return serr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanPool keeps idle ScanScratch between reprint tasks; a task borrows
// one only while it holds a frame slot.
var scanPool = sync.Pool{New: func() any { return new(ScanScratch) }}

// ScanFrame scans the frame at global index i. Each sheet seeds its
// scanner distortion by local frame index, so a single-sheet volume scans
// exactly like the bare medium it wraps.
func (v *Volume) ScanFrame(i int) (*raster.Gray, error) {
	s, idx, err := v.Locate(i)
	if err != nil {
		return nil, err
	}
	return v.sheets[s].ScanFrame(idx)
}

// ScanFrameInto is ScanFrame through the caller's scratch (see
// Medium.ScanFrameInto); the returned image aliases the scratch.
func (v *Volume) ScanFrameInto(s *ScanScratch, i int) (*raster.Gray, error) {
	sheet, idx, err := v.Locate(i)
	if err != nil {
		return nil, err
	}
	return v.sheets[sheet].ScanFrameInto(s, idx)
}

// Damage applies additional distortion to one frame of one sheet.
func (v *Volume) Damage(sheet, index int, d Distortions) error {
	m, err := v.Sheet(sheet)
	if err != nil {
		return err
	}
	return m.Damage(index, d)
}

// Destroy makes one frame of one sheet unreadable.
func (v *Volume) Destroy(sheet, index int) error {
	m, err := v.Sheet(sheet)
	if err != nil {
		return err
	}
	return m.Destroy(index)
}

// DestroySheet loses an entire carrier: every frame on the sheet becomes
// unreadable, the way a burnt reel or a lost page bundle takes all its
// emblems at once. The sheet still scans (fogged frames), so restoration
// sees the loss as decode failures to recover from — or report.
func (v *Volume) DestroySheet(sheet int) error {
	m, err := v.Sheet(sheet)
	if err != nil {
		return err
	}
	for i := 0; i < m.FrameCount(); i++ {
		if err := m.Destroy(i); err != nil {
			return err
		}
	}
	return nil
}
