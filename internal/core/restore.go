package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"microlonys/dynarisc"
	"microlonys/internal/bootstrap"
	"microlonys/internal/catalog"
	"microlonys/internal/dbcoder"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/nested"
	"microlonys/media"
	"microlonys/raster"
)

// The restoration pipeline (Figure 2b), as three explicit stages:
//
//	scan:       volume → per-frame scans (the simulated scanner)
//	decode:     scan → header + payload, natively or under emulation
//	reassemble: decoded frames → outer-code groups → streams → DBDecode
//
// Scan and decode run on the restore executor (decodeFrames), which hands
// frames to the reassemble stage in plan order as the workers finish them.
// Reassembly is group-incremental: the moment a group's last frame is
// consumed the group is outer-recovered, trimmed and flushed — raw
// archives stream straight to the caller's io.Writer, and a frame's
// payload is released as soon as its group closes, so peak memory is
// bounded by the groups in flight instead of the whole archive. Full
// restores, queries and salvage all assemble through the same assembler.

// Restore runs the restoration pipeline (Figure 2b) against a scanned
// medium and the Bootstrap text with default options. It returns the
// original archive bytes.
func Restore(m *media.Medium, bootstrapText string, mode Mode) ([]byte, *RestoreStats, error) {
	return RestoreWithOptions(m, bootstrapText, RestoreOptions{Mode: mode})
}

// RestoreWithOptions is Restore with explicit options. The restored bytes
// and stats are identical at any worker count.
func RestoreWithOptions(m *media.Medium, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreVolume(media.VolumeOf(m), bootstrapText, ro)
}

// RestoreVolume restores a multi-sheet volume into memory:
// RestoreToWriter over a bytes.Buffer.
func RestoreVolume(v *media.Volume, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	var buf bytes.Buffer
	st, err := RestoreToWriter(&buf, v, bootstrapText, ro)
	if err != nil {
		return nil, st, err
	}
	return buf.Bytes(), st, nil
}

// RestoreToWriter runs the restoration pipeline against a volume and the
// Bootstrap text, writing the restored archive bytes to w. Raw archives
// stream group by group as their frames decode; compressed archives
// accumulate only the (small) compressed stream before DBDecode runs. On
// error, w may already have received a prefix of the output. Bytes and
// stats are identical at any worker count.
func RestoreToWriter(w io.Writer, v *media.Volume, bootstrapText string, ro RestoreOptions) (*RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	st := newStats(v, ro.Mode)
	dec, err := newFrameDecoder(doc, ro.Mode)
	if err != nil {
		return st, fmt.Errorf("%w: bootstrap MODecode: %w", ErrRestore, err)
	}
	sheets, plan := volumePlan(v)
	if len(plan) == 0 {
		return st, fmt.Errorf("%w: no readable frames", ErrRestore)
	}

	// Reserved-slot volumes (declared by the Bootstrap's catalog=1 /
	// index=1): the leading frames of every sheet are out-of-band catalog
	// and index emblems the group assembler must treat as no group's
	// members — their loss is not a data loss.
	asm := newAssembler(st, w, mocoder.Capacity(doc.Layout), ro.Partial)
	reserved := boolInt(doc.Catalog) + boolInt(doc.Index)
	asm.sheetOf, asm.catSlot = make([]int, len(plan)), make([]bool, len(plan))
	for i, a := range plan {
		asm.sheetOf[i], asm.catSlot[i] = a.sheet, a.slot < reserved
	}

	if err := decodeFrames(orBackground(ro.Context), ro.Workers, sheets, plan, dec, asm.consume); err != nil {
		return st, err
	}
	if err := asm.finish(); err != nil {
		return st, err
	}
	return st, decompressTail(w, asm, ro.Mode)
}

func newStats(v *media.Volume, mode Mode) *RestoreStats {
	return &RestoreStats{Mode: mode, Sheets: make([]SheetReport, v.Sheets())}
}

// decompressTail finishes a restore once every group has flushed: raw
// archives already streamed to w, compressed archives decompress the
// assembled stream. Shared between restore and salvage.
func decompressTail(w io.Writer, asm *assembler, mode Mode) error {
	// The raw section streamed directly to w as its groups closed.
	if asm.sinks[emblem.KindRaw] != nil {
		return nil
	}
	if asm.dataBuf == nil {
		return fmt.Errorf("%w: no data stream recovered", ErrRestore)
	}
	decompress, err := dbDecoder(mode, asm.sysBuf)
	if err != nil {
		return err
	}
	out, err := decompress(asm.dataBuf.Bytes())
	if err != nil {
		return err
	}
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("%w: writing output: %w", ErrRestore, err)
	}
	return nil
}

// dbDecoder returns the DBDecode stage for mode: the Go reference decoder
// natively, otherwise the archived DBDecode program — reassembled from sys,
// the system section — executed under emulation.
func dbDecoder(mode Mode, sys *bytes.Buffer) (func(blob []byte) ([]byte, error), error) {
	if mode == RestoreNative {
		return func(blob []byte) ([]byte, error) {
			out, err := dbcoder.Decompress(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrRestore, err)
			}
			return out, nil
		}, nil
	}
	if sys == nil {
		return nil, fmt.Errorf("%w: system emblems (DBDecode) missing", ErrRestore)
	}
	prog, err := bootstrap.UnmarshalDynaRisc(sys.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%w: system emblem payload: %w", ErrRestore, err)
	}
	return func(blob []byte) ([]byte, error) { return emulatedDecompress(prog, blob, mode) }, nil
}

// kindSink accumulates one section's recovered stream, trimming at the
// header-declared TotalLen. The raw section's sink is the caller's writer;
// the data and system sections buffer (DBDecode needs the whole stream).
type kindSink struct {
	w       io.Writer
	total   int // section TotalLen from the headers; -1 until known
	written int
}

// write appends b to the sink, trimmed so the section never exceeds its
// TotalLen (frame payloads are padded to emblem capacity).
func (s *kindSink) write(b []byte) (int, error) {
	rem := s.total - s.written
	if rem > len(b) {
		rem = len(b)
	}
	if rem <= 0 {
		return 0, nil
	}
	if _, err := s.w.Write(b[:rem]); err != nil {
		// Both %w verbs matter: callers match ErrRestore for "the restore
		// failed" and the sink's own error for "my writer did this".
		return 0, fmt.Errorf("%w: writing output: %w", ErrRestore, err)
	}
	s.written += rem
	return rem, nil
}

// assembler is the group-incremental reassemble stage. It consumes frames
// in strict index order and reconstructs the outer-code groups from their
// headers: a decoded frame at index i with group position p places its
// group's frames at indices [i-p, i-p+data+parity) — the place stage wrote
// groups contiguously, so the range is exact, and failed frames inside it
// are the group's missing members. A run of failed frames no decoded
// header claims is a wholly-lost range (a destroyed carrier): fatal
// normally, counted and zero-filled in Partial mode.
//
// A query runs the assembler in planned mode instead: it selects its
// groups from their extents (selectGroup), each to be read only at the
// data positions it needs, and the plan, not the headers, places every
// frame. A group whose planned frames all decode closes from them alone;
// a failed planned frame sends its group to a second executor run over
// its remaining frames (round), after which it is recovered or lost like
// any group read whole. The groups close in group order once the rounds
// are done (closePlanned).
type assembler struct {
	st       *RestoreStats
	capacity int
	partial  bool
	out      io.Writer
	dataBuf  *bytes.Buffer
	sysBuf   *bytes.Buffer
	sinks    map[emblem.Kind]*kindSink
	sheetOf  []int
	catSlot  []bool // per-index: a reserved catalog or index slot (nil: none)
	sums     []catalog.GroupSum
	zeros    []byte

	// planned, when non-nil, lists a query's selected groups in group
	// order; placed[k] names frame k of the current round.
	planned []*openGroup
	placed  []placedFrame

	cur              *openGroup // the group being assembled; nil between groups
	runStart, runLen int        // consumed failed frames no group has claimed
	lastClosed       int        // group id of the last closed group (-1 initially)
	decoded          int

	// pendingZeroFrames is Partial-mode fill owed before the next group
	// flushes: a lost range (or a kind-unknown lost group) with no
	// section sink open yet cannot be placed until the next surviving
	// group reveals the section — the fill happens in closeGroup, ahead
	// of that group's own bytes, so output offsets hold.
	pendingZeroFrames int
}

// openGroup is one outer-code group under assembly. A full restore learns
// its shape from the headers, and its kind from a data member (0 while
// only parity has decoded); a query takes both from the group's extent.
type openGroup struct {
	groupExtent
	start   int    // full restore: index of the group's first frame
	total   uint32 // section TotalLen from the data members' headers
	members map[int][]byte
	frames  int // frames reported: data+parity, or those a query scanned from the group
	lo, hi  int // data positions the group writes: [0, data) unless a query reads it in part
}

// placedFrame is one frame of a query's round: its group and its
// position in that group.
type placedFrame struct {
	g   *openGroup
	pos int
}

func newAssembler(st *RestoreStats, out io.Writer, capacity int, partial bool) *assembler {
	return &assembler{
		st:         st,
		capacity:   capacity,
		partial:    partial,
		out:        out,
		sinks:      map[emblem.Kind]*kindSink{},
		zeros:      make([]byte, capacity),
		lastClosed: -1,
	}
}

// consume feeds the frame at index i (frames arrive in strictly
// increasing order) into the group state machine.
func (a *assembler) consume(i int, res *frameResult) error {
	sh := &a.st.Sheets[a.sheetOf[i]]
	sh.Frames++
	if res.scanned {
		a.st.FramesScanned++
	}
	ok := res.decoded
	if ok {
		a.decoded++
		a.st.BytesCorrected += res.corrected
	} else {
		a.st.FramesFailed++
		sh.FramesFailed++
	}

	if a.planned != nil {
		// A query's plan places the frame; one that failed, or decoded
		// somewhere else, is missing from its group.
		f := a.placed[i]
		f.g.frames++
		if ok {
			a.keep(f.g, f.pos, res, sh)
		}
		return nil
	}

	// Catalog and index frames are out-of-band: they belong to no
	// outer-code group, so they never open, join or close one. A frame
	// that failed to decode falls through to the ordinary failed-frame
	// path — the loss arithmetic discounts reserved slots.
	if ok {
		switch res.hdr.Kind {
		case emblem.KindCatalog:
			// The first readable catalog supplies the per-group checksums
			// closeGroup verifies against.
			a.st.CatalogFrames++
			if a.sums == nil {
				if c, err := catalog.Parse(res.payload); err == nil && len(c.Groups) > 0 {
					a.sums = c.Groups
				}
			}
			return nil
		case emblem.KindIndex:
			// The selective-restore index serves queries, not a full
			// restore — here it only needs to stay clear of the groups.
			a.st.IndexFrames++
			return nil
		}
	}

	if a.cur == nil {
		if !ok {
			if a.runLen == 0 {
				a.runStart = i
			}
			a.runLen++
			return nil
		}
		// A decoded frame opens (and locates) a new group.
		start := i - int(res.hdr.GroupPos)
		size := int(res.hdr.GroupData) + int(res.hdr.GroupParity)
		if res.hdr.GroupData == 0 || start < 0 || i >= start+size {
			// A header that cannot describe a group; treat the frame as failed.
			a.st.FramesFailed++
			sh.FramesFailed++
			if a.runLen == 0 {
				a.runStart = i
			}
			a.runLen++
			return nil
		}
		if a.runLen > 0 {
			if a.runStart < start {
				// Failed frames before this group's start belong to groups no
				// surviving frame identifies — carrier loss beyond the outer code.
				if err := a.lostRange(a.runStart, start-a.runStart, int(res.hdr.GroupID)); err != nil {
					return err
				}
			}
			// Failed frames inside [start, i) are this group's missing members;
			// closeGroup counts them as size - len(members).
			a.runLen = 0
		}
		a.open(start, int(res.hdr.GroupID), int(res.hdr.GroupData), int(res.hdr.GroupParity))
	}

	// A data member reveals the section.
	if ok && a.keep(a.cur, i-a.cur.start, res, sh) && res.hdr.Kind != emblem.KindParity {
		a.cur.kind = res.hdr.Kind
		a.cur.total = res.hdr.TotalLen
	}
	if i == a.cur.start+a.cur.size()-1 {
		return a.closeGroup()
	}
	return nil
}

// keep stores a decoded frame as member pos of group g. A frame whose
// header disagrees with that placement decoded but contributes nothing:
// it counts failed, so the loss arithmetic stays consistent.
func (a *assembler) keep(g *openGroup, pos int, res *frameResult, sh *SheetReport) bool {
	if int(res.hdr.GroupID) != g.id || int(res.hdr.GroupPos) != pos {
		a.st.FramesFailed++
		sh.FramesFailed++
		return false
	}
	padded := make([]byte, a.capacity)
	copy(padded, res.payload)
	g.members[pos] = padded
	return true
}

// open starts the group whose data+parity frames begin at index start.
func (a *assembler) open(start, id, data, parity int) {
	a.cur = &openGroup{
		groupExtent: groupExtent{id: id, data: data, parity: parity, sheet: a.sheetOf[start]},
		start:       start,
		members:     map[int][]byte{},
		frames:      data + parity,
		hi:          data,
	}
}

// selectGroup adds group g to a query's plan, to be read at its data
// positions [lo, hi) — and read whole if one of them is missing.
func (a *assembler) selectGroup(g groupExtent, lo, hi int) *openGroup {
	og := &openGroup{groupExtent: g, members: map[int][]byte{}, lo: lo, hi: hi}
	a.planned = append(a.planned, og)
	return og
}

// round plans a query's next executor run over all, the volume's frame
// addresses, and points the assembler at it: first every selected group's
// planned positions, then the remaining frames — other data positions and
// parity — of every group a planned frame is missing from, which from then
// on writes whole. The plan is empty once nothing is left to read, so a
// query runs one round, or two when a planned frame fails.
func (a *assembler) round(all []frameAddr) []frameAddr {
	var plan []frameAddr
	a.placed, a.sheetOf = a.placed[:0], a.sheetOf[:0]
	read := func(g *openGroup, pos int) {
		plan = append(plan, all[g.scanStart+pos])
		a.placed = append(a.placed, placedFrame{g, pos})
		a.sheetOf = append(a.sheetOf, g.sheet)
	}
	for _, g := range a.planned {
		switch {
		case g.frames == 0:
			for pos := g.lo; pos < g.hi; pos++ {
				read(g, pos)
			}
		case len(g.members) < g.frames && g.frames < g.size():
			for pos := 0; pos < g.size(); pos++ {
				if pos < g.lo || pos >= g.hi {
					read(g, pos)
				}
			}
			g.lo, g.hi = 0, g.data
		}
	}
	return plan
}

// closePlanned closes a query's groups in group order once its rounds are
// done: a group read in part writes its planned positions, a group read
// whole is recovered, or lost, as in a full restore.
func (a *assembler) closePlanned() error {
	for _, g := range a.planned {
		a.cur = g
		if err := a.closeGroup(); err != nil {
			return err
		}
	}
	return nil
}

// closeGroup recovers and flushes the current group: in a full restore the
// moment its last frame index has been consumed, in a query once its
// rounds are done.
func (a *assembler) closeGroup() error {
	g := a.cur
	sh := &a.st.Sheets[g.sheet]
	sh.Groups++
	missing := g.frames - len(g.members)
	rep := GroupReport{ID: g.id, Sheet: g.sheet, Frames: g.frames, Missing: missing}
	defer func() {
		a.st.Groups = append(a.st.Groups, rep)
		a.lastClosed = g.id
		a.cur = nil
	}()

	if g.kind == 0 {
		// Only parity members decoded: the section kind and stream totals
		// are unknowable, so the group's bytes cannot be recovered — in
		// Partial mode its data frames still owe zero-fill so later
		// groups keep their offsets.
		if !a.partial {
			return fmt.Errorf("%w: group %d has no readable data emblems", ErrRestore, g.id)
		}
		rep.Lost = true
		a.st.GroupsLost++
		sh.GroupsLost++
		return a.fillLost(g.data)
	}
	rep.Kind = g.kind.String()
	sink := a.sink(g.kind)
	if sink.total < 0 {
		sink.total = int(g.total)
	}
	// Fill owed for losses that preceded this section's first surviving
	// group, before this group's own bytes.
	if err := a.fillLost(0); err != nil {
		return err
	}

	full := make([][]byte, g.size())
	for pos, p := range g.members {
		full[pos] = p
	}
	if missing > 0 {
		if err := mocoder.RecoverGroup(full); err != nil {
			if !a.partial {
				return fmt.Errorf("%w: group %d: %w", ErrRestore, g.id, err)
			}
			// Beyond parity: zero-fill the group's data bytes so every
			// later group's output offset stays where the archive put it.
			rep.Lost = true
			a.st.GroupsLost++
			sh.GroupsLost++
			return a.zeroFill(sink, g.hi-g.lo)
		}
		rep.Recovered = true
		a.st.GroupsRecovered++
		sh.GroupsRecovered++
	}
	// Verify the recovered data against the catalog's group checksum when
	// one is available. A mismatch means the bytes decoded but contradict
	// what was archived (silent corruption the outer code missed): fatal
	// normally, counted — and still written, they are the best available —
	// in Partial mode.
	if g.id < len(a.sums) {
		if catalog.GroupCRC(full[:g.data]) == a.sums[g.id].CRC {
			rep.Verified = true
			a.st.GroupsVerified++
		} else {
			if !a.partial {
				return fmt.Errorf("%w: group %d contradicts its catalog checksum", ErrRestore, g.id)
			}
			rep.Mismatched = true
			a.st.GroupsMismatched++
		}
	}
	for pos := g.lo; pos < g.hi; pos++ {
		if _, err := sink.write(full[pos]); err != nil {
			return err
		}
	}
	return nil
}

// lostRange handles frames [start, start+n) that failed to decode and
// that no surviving frame's header claims: whole groups — typically a
// whole carrier — are gone. nextID is the group id that ends the range
// (the id of the group whose decoded frame exposed it), so the group
// arithmetic is exact: the range holds nextID-lastClosed-1 groups, each
// carrying GroupParity parity frames, and the rest of its frames are data.
func (a *assembler) lostRange(start, n, nextID int) error {
	nCat := a.catalogSlots(start, n)
	lostGroups := nextID - a.lastClosed - 1
	if n == nCat && lostGroups <= 0 {
		// Every frame in the range is a reserved catalog slot and no group
		// id was skipped: an unreadable catalog costs context, not data —
		// never a restore failure.
		return nil
	}
	if err := a.lostFrames(start, n); err != nil {
		return err
	}
	if lostGroups <= 0 {
		return nil // incoherent ids; the frames are already counted
	}
	a.st.GroupsLost += lostGroups
	a.st.Sheets[a.sheetOf[start]].GroupsLost += lostGroups
	// Report the lost groups so st.Groups stays complete in group order.
	// Their individual shapes are unknowable (the range may hold a
	// section's short final group), so each report carries the range's
	// even share.
	share := n / lostGroups
	for g := 0; g < lostGroups; g++ {
		a.st.Groups = append(a.st.Groups, GroupReport{
			ID:      a.lastClosed + 1 + g,
			Sheet:   a.sheetOf[start],
			Frames:  share,
			Missing: share,
			Lost:    true,
		})
	}
	// Zero-fill the lost data bytes so later groups stay at their archive
	// offsets: the range held lostGroups*GroupParity parity frames and
	// nCat reserved catalog slots, the rest were data. When the range
	// spans a section boundary the fill past the section's TotalLen is
	// trimmed away and finish pads the following section instead.
	return a.fillLost(n - nCat - lostGroups*mocoder.GroupParity)
}

// lostFrames counts frames [start, start+n) as lost: they failed to
// decode and no group identifies them — carrier loss beyond the outer
// code, fatal unless Partial.
func (a *assembler) lostFrames(start, n int) error {
	if !a.partial {
		return fmt.Errorf("%w: frames %d..%d unreadable and no group identifiable (carrier loss beyond parity)",
			ErrRestore, start, start+n-1)
	}
	a.st.FramesLost += n
	for i := start; i < start+n; i++ {
		a.st.Sheets[a.sheetOf[i]].FramesLost++
	}
	return nil
}

// catalogSlots counts the reserved catalog slots in [start, start+n) —
// the frames the loss arithmetic must not mistake for data.
func (a *assembler) catalogSlots(start, n int) int {
	if a.catSlot == nil {
		return 0
	}
	c := 0
	for i := start; i < start+n && i < len(a.catSlot); i++ {
		if a.catSlot[i] {
			c++
		}
	}
	return c
}

// fillLost zero-fills n lost data frames — plus any fill already owed —
// into the first open section sink. When no section is open yet (the loss
// precedes the section's first surviving group), the fill is deferred
// until closeGroup resolves the next group's sink, so output offsets
// hold; anything still owed at the end is covered by finish's pad.
func (a *assembler) fillLost(n int) error {
	n += a.pendingZeroFrames
	a.pendingZeroFrames = 0
	if n <= 0 {
		return nil
	}
	var sink *kindSink
	for _, k := range sectionKinds {
		if s := a.sinks[k]; s != nil && s.total >= 0 && s.written < s.total {
			sink = s
			break
		}
	}
	if sink == nil {
		a.pendingZeroFrames = n
		return nil
	}
	return a.zeroFill(sink, n)
}

// zeroFill writes n frames' worth of zeros to a section sink (trimmed at
// its TotalLen) and counts them as lost bytes.
func (a *assembler) zeroFill(s *kindSink, n int) error {
	for f := 0; f < n; f++ {
		w, err := s.write(a.zeros)
		if err != nil {
			return err
		}
		a.st.BytesLost += w
	}
	return nil
}

// finish closes the books once every frame has been consumed.
func (a *assembler) finish() error {
	if a.cur != nil {
		// The volume ended inside a group's claimed range (truncated
		// carrier); close it with what decoded.
		if err := a.closeGroup(); err != nil {
			return err
		}
	}
	if a.runLen > 0 {
		// Trailing failed frames no group claims: there is no next group
		// id, so the group arithmetic is unavailable; the per-sink pad
		// below restores the output length.
		if err := a.lostFrames(a.runStart, a.runLen); err != nil {
			return err
		}
		a.runLen = 0
	}
	if a.decoded == 0 {
		return fmt.Errorf("%w: no readable frames", ErrRestore)
	}
	for _, k := range sectionKinds {
		s := a.sinks[k]
		if s == nil || s.total < 0 || s.written >= s.total {
			continue
		}
		if !a.partial {
			return fmt.Errorf("%w: no data stream recovered (%d of %d bytes)", ErrRestore, s.written, s.total)
		}
		if err := a.zeroFill(s, (s.total-s.written+a.capacity-1)/a.capacity); err != nil {
			return err
		}
	}
	return nil
}

// sectionKinds is the archive's section emission order — the order loss
// arithmetic and padding walk the sinks, so results are deterministic.
var sectionKinds = []emblem.Kind{emblem.KindRaw, emblem.KindData, emblem.KindSystem}

// sink returns (creating on first use) the destination for a section
// kind: the raw section streams to the caller's writer, the data and
// system sections buffer for DBDecode.
func (a *assembler) sink(k emblem.Kind) *kindSink {
	if s := a.sinks[k]; s != nil {
		return s
	}
	var w io.Writer
	switch k {
	case emblem.KindRaw:
		w = a.out
	case emblem.KindData:
		a.dataBuf = &bytes.Buffer{}
		w = a.dataBuf
	case emblem.KindSystem:
		a.sysBuf = &bytes.Buffer{}
		w = a.sysBuf
	default:
		w = io.Discard // unknown section kinds are dropped
	}
	s := &kindSink{w: w, total: -1}
	a.sinks[k] = s
	return s
}

// emulatedDecompress runs the archived DBDecode program over the
// assembled compressed stream. The archived decoder reads one standalone
// DBCoder archive; seekable (DBS1) streams — what indexed archives write —
// are its restart blocks run back to back, so the emulated path decodes
// them block by block through the same program, exactly as the index's
// recovery instructions direct a future user to. The concatenated output
// is verified against the container's whole-stream length and checksum.
func emulatedDecompress(dbProg *dynarisc.Program, blob []byte, mode Mode) ([]byte, error) {
	var out []byte
	if dbcoder.IsSeekable(blob) {
		blocks, err := dbcoder.SeekTable(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRestore, err)
		}
		for _, b := range blocks {
			part, err := runDBDecode(dbProg, blob[b.CompOff:b.CompOff+b.CompLen], mode)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrRestore, err)
			}
			out = append(out, part...)
		}
	} else {
		var err error
		if out, err = runDBDecode(dbProg, blob, mode); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRestore, err)
		}
	}
	// The archived decoder skips the trailing CRC; check its output
	// against the length and checksum in the archive header — a mismatch
	// is a restoration failure, never data to hand back.
	if err := verifyDBDecodeOutput(blob, out); err != nil {
		return nil, err
	}
	return out, nil
}

// verifyDBDecodeOutput validates the emulated decompressor's output
// against the archive header. Factored out for the regression test: an
// output that differs from the archived stream's record must surface as
// ErrRestore, not be silently returned.
func verifyDBDecodeOutput(blob, out []byte) error {
	if err := dbcoder.Verify(blob, out); err != nil {
		return fmt.Errorf("%w: emulated DBDecode output: %w", ErrRestore, err)
	}
	return nil
}

// emuScratch is one worker's reusable emulator state for the emulated
// restore modes: the DynaRisc reference CPU (RestoreDynaRisc), the
// VeRisc-hosted runner (RestoreNested) and the input framing buffer.
// A frame task holds one (inside its scanScratch) for one frame, so the
// scratch is reused serially without locks and a frame decode allocates its payload and nothing else — not the
// multi-megawords machine image it used to build per frame.
type emuScratch struct {
	cpu    *dynarisc.CPU
	nested *nested.Runner
	in     []uint16
}

// decodeFrameEmulated runs the archived MODecode program on a scan,
// reusing the worker's emulator and buffers.
func decodeFrameEmulated(s *emuScratch, prog *dynarisc.Program, scan *raster.Gray, l emblem.Layout, mode Mode) ([]byte, emblem.Header, error) {
	// Host-side image preprocessing per the Bootstrap (§3.3 step 1):
	// deskew and rescale the scan onto the nominal grid before handing
	// the flat pixel array to the archived decoder. The Bootstrap fixes
	// the rescale target at 3 pixels per module (module centres land on
	// whole pixels), which also keeps every profile's frame inside
	// DynaRisc's 24-bit address range.
	rl := l
	if rl.PxPerModule > 3 {
		rl.PxPerModule = 3
	}
	scan, err := mocoder.Rectify(scan, rl)
	if err != nil {
		return nil, emblem.Header{}, err
	}

	// Input framing per the Bootstrap: [W, H, dataW, dataH, pixels...],
	// assembled into the worker's reusable buffer.
	in := append(s.in[:0], uint16(scan.W), uint16(scan.H), uint16(l.DataW), uint16(l.DataH))
	in = dynarisc.AppendInWords(in, scan.Pix)
	s.in = in

	var outBytes []byte
	switch mode {
	case RestoreDynaRisc:
		if s.cpu == nil {
			s.cpu = dynarisc.NewCPU(dynprog.MOMemWords(scan))
		} else {
			s.cpu.Reset()
			s.cpu.EnsureMem(dynprog.MOMemWords(scan))
		}
		cpu := s.cpu
		cpu.MaxSteps = 60_000_000_000
		if err := cpu.LoadProgram(prog.Org, prog.Words); err != nil {
			return nil, emblem.Header{}, err
		}
		cpu.In = in
		if err := cpu.Run(); err != nil {
			return nil, emblem.Header{}, err
		}
		outBytes = cpu.OutBytes()
	case RestoreNested:
		if s.nested == nil {
			s.nested = nested.NewRunner()
		}
		var err error
		outBytes, err = s.nested.RunAppendBytes(nil, prog, in, dynprog.MOMemWords(scan), 0)
		if err != nil {
			return nil, emblem.Header{}, err
		}
	default:
		return nil, emblem.Header{}, fmt.Errorf("core: bad emulated mode %v", mode)
	}
	if len(outBytes) == 0 {
		return nil, emblem.Header{}, errors.New("core: MODecode produced no output (damaged frame)")
	}

	// MODecode emits the payload; recover the header from a native parse
	// of the same scan's header block is not available here, so MODecode
	// convention: the payload is prefixed by the 22-byte voted header.
	if len(outBytes) < emblem.HeaderSize {
		return nil, emblem.Header{}, errors.New("core: emulated payload too short")
	}
	hdr, err := emblem.ParseHeader(outBytes[:emblem.HeaderSize])
	if err != nil {
		return nil, emblem.Header{}, err
	}
	return outBytes[emblem.HeaderSize:], hdr, nil
}

// runDBDecode executes the archived DBDecode program on the compressed
// stream under the selected emulation level.
func runDBDecode(prog *dynarisc.Program, blob []byte, mode Mode) ([]byte, error) {
	rawLen, err := dbcoder.RawLen(blob)
	if err != nil {
		return nil, err
	}
	memWords := dynprog.DBOutBuf + rawLen + 4096
	switch mode {
	case RestoreDynaRisc:
		cpu := dynarisc.NewCPU(memWords)
		cpu.MaxSteps = 60_000_000_000
		if err := cpu.LoadProgram(prog.Org, prog.Words); err != nil {
			return nil, err
		}
		cpu.SetInBytes(blob)
		cpu.ReserveOut(rawLen)
		if err := cpu.Run(); err != nil {
			return nil, err
		}
		return cpu.OutBytes(), nil
	case RestoreNested:
		return nested.NewRunner().RunBytesAppendBytes(
			make([]byte, 0, rawLen), prog, blob, memWords, 0)
	default:
		return nil, fmt.Errorf("core: bad emulated mode %v", mode)
	}
}
