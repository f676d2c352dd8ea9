package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"microlonys/internal/catalog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// Salvage is the disaster-path restore: the future user holds an
// unordered bag of sheets — possibly damaged, duplicated, incomplete —
// and nothing else. No bootstrap text, no manifest, no sheet order.
// The salvage engine rebuilds what Restore is handed for free:
//
//	identify: scan and decode every frame of every bag sheet; read each
//	          sheet's catalog emblem (archive id, sheet ordinal, volume
//	          inventory, group checksums, bootstrap replica)
//	order:    place each sheet's frames into the archive's global frame
//	          space — from the catalog inventory, or, when catalogs are
//	          unreadable, by majority vote over the frame headers' index
//	          fields (every surviving frame knows its own position)
//	dedupe:   two bag sheets claiming the same position are copies; keep
//	          the one with more readable frames
//	restore:  run the group assembler best-effort over the reconstructed
//	          frame space, verifying each group against its catalog
//	          checksum and zero-filling what is beyond parity
//
// The output is byte-identical to Restore whenever the damage is within
// the parity budget; beyond it, the SalvageReport ledger says exactly
// which sheets and groups were lost.

// SalvageOptions configures a salvage run.
type SalvageOptions struct {
	// Mode selects the restore execution path. Emulated modes require a
	// readable catalog bootstrap replica (there is no bootstrap text to
	// parse the decoder programs from).
	Mode Mode

	// Workers bounds the scan/decode pool (0 = GOMAXPROCS, 1 = serial).
	// Output and report are identical at any worker count.
	Workers int

	// Context, when non-nil, cancels the salvage pipeline.
	Context context.Context
}

// SalvageReport is the salvage ledger: what the bag contained, what the
// archive was, and what could be brought back.
type SalvageReport struct {
	Stats RestoreStats // assembler tallies (groups verified/mismatched/lost, bytes lost...)

	ArchiveID  uint64 // identity from the catalog (0 when no catalog was readable)
	SheetCount int    // sheets the archive had (from the catalog; bag-derived otherwise)

	SheetsPresented    int   // sheets handed to Salvage
	SheetsIdentified   []int // original sheet ordinals recovered, ascending
	SheetsMissing      []int // ordinals of sheets absent from the bag (requires a catalog)
	SheetsDuplicate    int   // redundant copies discarded after dedupe
	SheetsUnidentified int   // bag sheets with no readable catalog or frame headers

	CatalogFrames        int  // catalog emblems that decoded and parsed
	IndexFrames          int  // selective-restore index emblems that decoded
	CatalogUsed          bool // a catalog supplied inventory, checksums or identity
	BootstrapRecovered   bool // the catalog replica rebuilt the full Bootstrap document
	BootstrapFromCatalog bool // the rebuilt Bootstrap's programs executed the restore (emulated modes)

	Complete bool // nothing lost or mismatched: the output is the exact archive
}

// bagSheet is one presented sheet's identification state.
type bagSheet struct {
	present int              // position in the bag
	frames  int              // frames on the sheet
	decoded int              // frames that decoded (any kind)
	cat     *catalog.Catalog // the sheet's own catalog, when readable
	offset  int              // planner offset v: frame at local j holds global planner index v+j
	hasOff  bool
	ordinal int // original sheet ordinal; -1 unknown
}

// SalvageTo restores an unordered bag of sheets to w, best-effort, with
// no external bootstrap text. On error, w may hold a prefix of the
// output; the report — returned alongside most errors — still carries
// the identification ledger.
func SalvageTo(w io.Writer, sheets []*media.Medium, opts SalvageOptions) (*SalvageReport, error) {
	rep := &SalvageReport{SheetsPresented: len(sheets)}
	ctx := orBackground(opts.Context)

	// The frame plan: every frame of every bag sheet, in bag order.
	var layout emblem.Layout
	var frames []frameAddr
	for s, m := range sheets {
		if m == nil || m.FrameCount() == 0 {
			continue
		}
		if layout == (emblem.Layout{}) {
			layout = m.Profile().Layout
		}
		for j := 0; j < m.FrameCount(); j++ {
			frames = append(frames, frameAddr{s, j})
		}
	}
	if len(frames) == 0 {
		return rep, fmt.Errorf("%w: empty sheet bag", ErrRestore)
	}
	if err := layout.Validate(); err != nil {
		return rep, fmt.Errorf("%w: bag media layout: %w", ErrRestore, err)
	}
	capacity := mocoder.Capacity(layout)

	// Identify: scan and natively decode every frame of every sheet. The
	// emblem geometry is a physical property of the artifact (and is
	// restated in every catalog frame), so no bootstrap is needed to read
	// headers. A frame that fails to decode is damage to recover from,
	// never an abort.
	results := make([]frameResult, len(frames))
	keep := func(k int, res *frameResult) error {
		results[k] = *res
		return nil
	}
	dec := &frameDecoder{mode: RestoreNative, layout: layout}
	if err := decodeFrames(ctx, opts.Workers, sheets, frames, dec, keep); err != nil {
		return rep, err
	}

	// Per-sheet identification: parse catalogs, vote planner offsets.
	bag := identifySheets(sheets, frames, results)

	// Adopt the most complete readable catalog — they are identical
	// across sheets apart from the ordinal, but damage may have trimmed
	// some copies harder than others.
	var best *catalog.Catalog
	for _, bs := range bag {
		if bs.cat == nil {
			continue
		}
		rep.CatalogFrames++
		if better(bs.cat, best) {
			best = bs.cat
		}
	}
	catalogOn := best != nil
	if catalogOn {
		rep.CatalogUsed = true
		rep.ArchiveID = best.ArchiveID
		rep.SheetCount = best.SheetCount
	}

	// Index volumes reserve one more leading slot per sheet. The catalog
	// records the reservation; without one the surviving index frames
	// themselves reveal it (their decoded headers say KindIndex).
	indexOn := catalogOn && best.IndexSlot
	for i := range results {
		if results[i].decoded && results[i].hdr.Kind == emblem.KindIndex {
			rep.IndexFrames++
			indexOn = true
		}
	}
	reserved := boolInt(catalogOn) + boolInt(indexOn)

	// Resolve every sheet's planner offset and ordinal from the catalog
	// inventory where the vote is silent, then dedupe copies.
	kept, dup, unid := resolveAndDedupe(bag, best, reserved)
	rep.SheetsDuplicate = dup
	rep.SheetsUnidentified = unid

	// The global planner frame space. The catalog states it exactly;
	// without one it is the furthest frame any kept sheet reaches.
	nTotal := 0
	if catalogOn {
		nTotal = best.TotalFrames - best.SheetCount*reserved
	}
	planner := placeFrames(kept, frames, results, reserved, &nTotal)
	if nTotal <= 0 {
		return rep, fmt.Errorf("%w: no readable frames", ErrRestore)
	}

	// Identified/missing ledger.
	seen := map[int]bool{}
	for _, ks := range kept {
		if ks.ordinal >= 0 {
			seen[ks.ordinal] = true
			rep.SheetsIdentified = append(rep.SheetsIdentified, ks.ordinal)
		}
	}
	sort.Ints(rep.SheetsIdentified)
	if rep.SheetCount == 0 {
		rep.SheetCount = len(kept)
	}
	for s := 0; s < rep.SheetCount && catalogOn; s++ {
		if !seen[s] {
			rep.SheetsMissing = append(rep.SheetsMissing, s)
		}
	}

	// Emulated modes decode through the archived programs — MODecode, and
	// in nested mode the emulator that hosts it; with no bootstrap text
	// the only source is the catalog replica.
	if opts.Mode != RestoreNative {
		if best == nil {
			return rep, fmt.Errorf("%w: emulated salvage needs a catalog bootstrap replica and no catalog was readable", ErrRestore)
		}
		doc, err := best.BootstrapDoc()
		if err != nil {
			return rep, fmt.Errorf("%w: emulated salvage: %w", ErrRestore, err)
		}
		rep.BootstrapRecovered = true
		rep.BootstrapFromCatalog = true
		if dec, err = newFrameDecoder(doc, opts.Mode); err != nil {
			return rep, fmt.Errorf("%w: catalog replica %w", ErrRestore, err)
		}
		dec.layout = layout // the bag's own geometry, as identification read it
		// Re-decode the kept sheets' frames through the recovered program:
		// the restore path the future user would actually run.
		// Identification keeps the native pass's placement (the headers
		// agree); discarded duplicate sheets are not decoded twice.
		keptPresent := map[int]bool{}
		for _, ks := range kept {
			keptPresent[ks.present] = true
		}
		var redo []int // bag frame indices to re-decode
		var plan []frameAddr
		for k, a := range frames {
			if keptPresent[a.sheet] {
				redo = append(redo, k)
				plan = append(plan, a)
			}
		}
		if err := decodeFrames(ctx, opts.Workers, sheets, plan, dec, func(j int, res *frameResult) error {
			results[redo[j]] = *res
			return nil
		}); err != nil {
			return rep, err
		}
		planner = placeFrames(kept, frames, results, reserved, &nTotal)
	} else if best != nil {
		if _, err := best.BootstrapDoc(); err == nil {
			rep.BootstrapRecovered = true
		}
	}

	// Best-effort group assembly over the reconstructed frame space.
	numSheets := rep.SheetCount
	if numSheets <= 0 {
		numSheets = 1
	}
	st := &RestoreStats{Mode: opts.Mode, Sheets: make([]SheetReport, numSheets)}
	st.CatalogFrames = rep.CatalogFrames
	st.IndexFrames = rep.IndexFrames
	asm := newAssembler(st, w, capacity, true)
	asm.sheetOf = plannerSheetOf(nTotal, numSheets, kept, best, reserved)
	if best != nil {
		asm.sums = best.Groups
	}
	var asmErr error
	for i := 0; i < nTotal && asmErr == nil; i++ {
		// The assembly leg is serial; honor cancellation between groups so
		// a salvage of a large bag aborts promptly (the scan/decode legs
		// already stop inside decodeFrames).
		if i%(mocoder.GroupData+mocoder.GroupParity) == 0 && ctx.Err() != nil {
			asmErr = fmt.Errorf("%w: %w", ErrRestore, ctx.Err())
			break
		}
		asmErr = asm.consume(i, &planner[i])
	}
	if asmErr == nil {
		asmErr = asm.finish()
	}
	if asmErr == nil {
		if err := ctx.Err(); err != nil {
			asmErr = fmt.Errorf("%w: %w", ErrRestore, err)
		} else {
			asmErr = dec.decompressTail(w, asm)
		}
	}
	rep.Stats = *st
	rep.Complete = asmErr == nil && st.GroupsLost == 0 && st.FramesLost == 0 &&
		st.GroupsMismatched == 0 && len(rep.SheetsMissing) == 0
	return rep, asmErr
}

// identifySheets builds each presented sheet's identification state from
// the decoded frames: its catalog (if one decoded) and the majority vote
// over planner offsets — every decoded frame at local position j with
// header index idx claims its sheet starts the planner space at idx-j.
func identifySheets(sheets []*media.Medium, frames []frameAddr, results []frameResult) []*bagSheet {
	bag := make([]*bagSheet, len(sheets))
	votes := make([]map[int]int, len(sheets))
	for i, bf := range frames {
		bs := bag[bf.sheet]
		if bs == nil {
			bs = &bagSheet{present: bf.sheet, frames: sheets[bf.sheet].FrameCount(), ordinal: -1}
			bag[bf.sheet] = bs
			votes[bf.sheet] = map[int]int{}
		}
		res := &results[i]
		if !res.decoded {
			continue
		}
		bs.decoded++
		if res.hdr.Kind == emblem.KindCatalog {
			if bs.cat == nil {
				if c, err := catalog.Parse(res.payload); err == nil {
					bs.cat = c
				}
			}
			continue
		}
		if res.hdr.Kind == emblem.KindIndex {
			continue // out-of-band: its header Index is a sheet ordinal, not a planner position
		}
		votes[bf.sheet][int(res.hdr.Index)-bf.slot]++
	}
	for s, bs := range bag {
		if bs == nil {
			continue
		}
		bestV, bestN := 0, 0
		for v, n := range votes[s] {
			if n > bestN || (n == bestN && v < bestV) {
				bestV, bestN = v, n
			}
		}
		if bestN > 0 {
			bs.offset, bs.hasOff = bestV, true
		}
		if bs.cat != nil {
			bs.ordinal = bs.cat.Sheet
		}
	}
	out := bag[:0]
	for _, bs := range bag {
		if bs != nil {
			out = append(out, bs)
		}
	}
	return out
}

// better ranks catalogs by completeness: replica > group checksums >
// sheet inventory > any.
func better(c, than *catalog.Catalog) bool {
	if than == nil {
		return true
	}
	score := func(c *catalog.Catalog) int {
		s := 0
		if len(c.Replica) > 0 {
			s += 4
		}
		if len(c.Groups) > 0 {
			s += 2
		}
		if len(c.Sheets) > 0 {
			s++
		}
		return s
	}
	return score(c) > score(than)
}

// resolveAndDedupe fills planner offsets from the catalog inventory where
// frame votes are silent, then collapses bag sheets claiming the same
// planner position, keeping the copy with the most readable frames
// (ties: the earlier bag position). Returns the kept sheets, the number
// of discarded duplicates, and the number of unidentifiable sheets.
func resolveAndDedupe(bag []*bagSheet, best *catalog.Catalog, reserved int) (kept []*bagSheet, dup, unid int) {
	for _, bs := range bag {
		if bs.hasOff {
			continue
		}
		// A sheet whose catalog survived but whose data frames all failed:
		// the inventory places it. On reserved-slot volumes planner(j) =
		// v+j with the sheet's `reserved` leading slots (catalog, index)
		// outside the planner space, so v = startFrame - ordinal*reserved
		// - reserved.
		if bs.cat != nil && bs.ordinal >= 0 && bs.ordinal < len(bs.cat.Sheets) {
			bs.offset = bs.cat.Sheets[bs.ordinal].StartFrame - bs.ordinal*reserved - reserved
			bs.hasOff = true
		}
	}
	// Derive missing ordinals from the inventory: the sheet whose range
	// starts where this sheet's frames start.
	if best != nil {
		for _, bs := range bag {
			if bs.ordinal >= 0 || !bs.hasOff {
				continue
			}
			for s, r := range best.Sheets {
				if r.StartFrame-s*reserved-reserved == bs.offset {
					bs.ordinal = s
					break
				}
			}
		}
	}

	byKey := map[int]*bagSheet{}
	var orphans []*bagSheet // identified by ordinal only (no frames to place)
	for _, bs := range bag {
		switch {
		case bs.hasOff:
			cur := byKey[bs.offset]
			if cur == nil {
				byKey[bs.offset] = bs
			} else {
				dup++
				if bs.decoded > cur.decoded || (bs.decoded == cur.decoded && bs.present < cur.present) {
					byKey[bs.offset] = bs
				}
			}
		case bs.ordinal >= 0:
			orphans = append(orphans, bs)
		default:
			unid++
		}
	}
	for _, bs := range byKey {
		kept = append(kept, bs)
	}
	for _, bs := range orphans {
		// Dedupe orphans against placed sheets by ordinal.
		dupOf := false
		for _, ks := range kept {
			if ks.ordinal == bs.ordinal {
				dupOf = true
				break
			}
		}
		if dupOf {
			dup++
		} else {
			kept = append(kept, bs)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].hasOff != kept[j].hasOff {
			return kept[i].hasOff
		}
		if kept[i].offset != kept[j].offset {
			return kept[i].offset < kept[j].offset
		}
		return kept[i].present < kept[j].present
	})
	// Without a catalog the original ordinals are unknowable; planner
	// order is the best reconstruction — number the sheets by it.
	for rank, ks := range kept {
		if ks.ordinal < 0 {
			ks.ordinal = rank
		}
	}
	return kept, dup, unid
}

// placeFrames lays every kept sheet's decoded frames into the global
// planner frame space (catalog and index slots excluded — they are
// scan-space artifacts). Slots covered by a present sheet are marked
// scanned even when their frame failed to decode, so the loss ledger
// distinguishes damaged-but-present from absent. nTotal grows to fit when
// the catalog did not state it.
func placeFrames(kept []*bagSheet, frames []frameAddr, results []frameResult, reserved int, nTotal *int) []frameResult {
	keptSet := map[int]*bagSheet{}
	for _, ks := range kept {
		if ks.hasOff {
			keptSet[ks.present] = ks
		}
	}
	// Size first: the furthest planner index any placed sheet reaches.
	for _, ks := range keptSet {
		// The leading reserved slots are not planner frames.
		end := ks.offset + ks.frames - reserved
		if end > *nTotal {
			*nTotal = end
		}
	}
	if *nTotal <= 0 {
		return nil
	}
	planner := make([]frameResult, *nTotal)
	for i, bf := range frames {
		ks := keptSet[bf.sheet]
		if ks == nil {
			continue
		}
		res := &results[i]
		if res.decoded && (res.hdr.Kind == emblem.KindCatalog || res.hdr.Kind == emblem.KindIndex) {
			continue
		}
		// Skip the reserved slots even when they failed to decode.
		if bf.slot < reserved {
			continue
		}
		pi := ks.offset + bf.slot
		if pi < 0 || pi >= *nTotal {
			continue
		}
		if planner[pi].decoded && !res.decoded {
			continue // never let a failed frame shadow a decoded one
		}
		planner[pi] = *res
	}
	return planner
}

// plannerSheetOf maps planner frame indices to original sheet ordinals
// for the per-sheet ledger: exact from the catalog inventory, otherwise
// from the kept sheets' ranges (gaps inherit the preceding sheet).
func plannerSheetOf(n, numSheets int, kept []*bagSheet, best *catalog.Catalog, reserved int) []int {
	sheetOf := make([]int, n)
	for i := range sheetOf {
		sheetOf[i] = -1
	}
	assign := func(lo, length, s int) {
		if s < 0 || s >= numSheets {
			return
		}
		for i := lo; i < lo+length && i < n; i++ {
			if i >= 0 {
				sheetOf[i] = s
			}
		}
	}
	if best != nil && len(best.Sheets) > 0 {
		// Inventory ranges are in scan space (reserved slots included); the
		// planner range of sheet s starts StartFrame-s*reserved and holds
		// `reserved` frames fewer.
		for s, r := range best.Sheets {
			assign(r.StartFrame-s*reserved, r.Frames-reserved, s)
		}
	} else {
		for _, ks := range kept {
			if ks.hasOff {
				assign(ks.offset, ks.frames-reserved, ks.ordinal)
			}
		}
	}
	// Gaps (frames no identified sheet covers) inherit the preceding
	// sheet so every index maps somewhere within bounds.
	cur := 0
	for i := 0; i < n; i++ {
		if sheetOf[i] >= 0 {
			cur = sheetOf[i]
		} else {
			sheetOf[i] = cur
		}
	}
	return sheetOf
}
