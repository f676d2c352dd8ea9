package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"microlonys/dynarisc"
	"microlonys/internal/archindex"
	"microlonys/internal/bootstrap"
	"microlonys/internal/catalog"
	"microlonys/internal/dbcoder"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/nested"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/raster"
	"microlonys/verisc"
)

// The archival pipeline (Figure 2a), as three explicit stages:
//
//	plan:   DBCoder + system stream → an io.Reader per section → the
//	        outer-code groups the archive layout (layoutGroups) cuts,
//	        planned one at a time (serial; owns all cross-frame state:
//	        parity, header and index fixup)
//	encode: group plan → rasterized emblems (parallel per frame)
//	place:  emblems → the volume's sheets, in frame order, one whole group
//	        per write (serial; a group never straddles a sheet)
//
// The serial stages overlap the parallel middle at every worker count
// (see pipelineGroups): the planner goroutine cuts groups and feeds frame
// tasks to the encode pool while the placer consumes finished groups in
// plan order, so planning group k+2, encoding group k+1 and writing
// group k proceed concurrently instead of the planner and placer
// stalling the pool at every group boundary.
//
// The planner streams: it reads one group's worth of payload bytes at a
// time and hands the group on before cutting the next, so peak memory is
// bounded by the groups in flight — at most pipelineGroupDepth+2 (queue,
// plus one being planned and one being placed) — not the whole archive's
// frame list. Fixing headers and frame indices at planning time is what
// keeps the encode fan-out trivially deterministic: workers only
// rasterize, they never allocate indices or touch shared counters, and
// the placer writes whole groups in the order the planner emitted them.

// The archived decoder programs and the Bootstrap emulator are
// deterministic builds of static assembly; build each once per process
// instead of once per archive (they dominated CreateArchive's fixed cost
// for small archives). All consumers treat the programs as read-only.
var (
	buildOnce sync.Once
	builtEmu  *verisc.Program
	builtMO   *dynarisc.Program
	builtDB   *dynarisc.Program
	buildErr  error
)

func archivedPrograms() (*verisc.Program, *dynarisc.Program, *dynarisc.Program, error) {
	buildOnce.Do(func() {
		if builtEmu, buildErr = nested.Program(); buildErr != nil {
			buildErr = fmt.Errorf("core: building emulator: %w", buildErr)
			return
		}
		if builtMO, buildErr = dynprog.MODecode(); buildErr != nil {
			buildErr = fmt.Errorf("core: assembling MODecode: %w", buildErr)
			return
		}
		if builtDB, buildErr = dynprog.DBDecode(); buildErr != nil {
			buildErr = fmt.Errorf("core: assembling DBDecode: %w", buildErr)
		}
	})
	return builtEmu, builtMO, builtDB, buildErr
}

// frameTask is one planned emblem: the payload and the fully resolved
// header the encode stage will rasterize.
type frameTask struct {
	payload []byte
	hdr     emblem.Header
}

// groupPlan is one outer-code group's worth of planned frames — data
// emblems first, then parity — the unit the planner emits and the place
// stage writes atomically onto a sheet.
type groupPlan struct {
	tasks []frameTask
}

// CreateArchive runs the archival pipeline (Figure 2a) over an in-memory
// archive: db_dump output in, written volume + Bootstrap out. It is
// CreateArchiveStream over a bytes.Reader.
func CreateArchive(data []byte, opts Options) (*Archived, error) {
	return CreateArchiveStream(bytes.NewReader(data), opts)
}

// CreateArchiveStream runs the archival pipeline over an io.Reader,
// planning, encoding and placing one outer-code group at a time.
//
// Every frame header carries its section's TotalLen, so the planner needs
// each section's byte length before the first group is cut: compressed
// archives learn it from DBCoder's output (DBCoder is a whole-stream
// compressor, so the input is buffered regardless), raw archives read it
// from the reader's Len or Seek end without buffering, falling back to
// buffering only for unsized streams (pipes). The rasterized frames —
// three orders of magnitude larger than the payload bytes — are never
// materialized beyond the group in flight.
func CreateArchiveStream(r io.Reader, opts Options) (*Archived, error) {
	if opts.GroupData <= 0 {
		opts.GroupData = mocoder.GroupData
	}
	if opts.GroupData > mocoder.GroupData {
		return nil, fmt.Errorf("core: unsupported group shape %d+%d", opts.GroupData, mocoder.GroupParity)
	}
	if reserved := boolInt(opts.Catalog) + boolInt(opts.Index); opts.SheetFrames > 0 &&
		opts.SheetFrames < opts.GroupData+mocoder.GroupParity+reserved {
		return nil, fmt.Errorf("core: sheet capacity %d below group size %d+%d plus %d reserved slots",
			opts.SheetFrames, opts.GroupData, mocoder.GroupParity, reserved)
	}
	layout := opts.Profile.Layout
	capacity := mocoder.Capacity(layout)
	if capacity <= 0 {
		return nil, fmt.Errorf("core: profile %q has zero emblem capacity", opts.Profile.Name)
	}

	// Resolve the sections: the (possibly compressed) data stream, then
	// the archived DBDecode instruction stream (system emblems).
	var man Manifest
	var sections []archiveSection
	var idxBlocks []dbcoder.SeekBlock
	var idxSections []archindex.Section
	var data []byte
	if opts.Compress || opts.Index {
		// DBCoder is a whole-stream compressor, and section discovery needs
		// the bytes in hand: both buffer the input.
		var err error
		if data, err = io.ReadAll(r); err != nil {
			return nil, fmt.Errorf("core: reading input: %w", err)
		}
		r = bytes.NewReader(data)
		if opts.Index {
			idxSections = namedSections(data)
		}
	}
	if opts.Compress {
		depth := opts.CompressDepth
		if depth <= 0 {
			depth = dbcoder.DefaultDepth
		}
		var stream []byte
		if opts.Index {
			// Indexed archives use the seekable container: independently
			// decodable restart blocks whose raw/compressed extents the
			// index records, so a range query decompresses only the blocks
			// it overlaps.
			blockBytes := opts.IndexBlockBytes
			if blockBytes <= 0 {
				// Default: about one outer-code group of compressed
				// payload per block, but never more block-table entries
				// than the index frame can carry alongside its section
				// table (~16 raw bytes per entry against one frame's
				// capacity), or the trim ladder would drop the sections.
				blockBytes = opts.GroupData * capacity
				if maxBlocks := capacity / 16; maxBlocks > 0 {
					if minBytes := (len(data) + maxBlocks - 1) / maxBlocks; blockBytes < minBytes {
						blockBytes = minBytes
					}
				}
			}
			stream = dbcoder.CompressSeekableDepth(data, depth, blockBytes)
			if bl, err := dbcoder.SeekTable(stream); err == nil {
				idxBlocks = bl
			}
		} else {
			stream = dbcoder.CompressDepth(data, depth)
		}
		man.RawLen = len(data)
		man.StreamLen = len(stream)

		_, _, prog, err := archivedPrograms()
		if err != nil {
			return nil, err
		}
		sys := bootstrap.MarshalDynaRisc(prog)
		man.SystemLen = len(sys)
		sections = []archiveSection{
			{emblem.KindData, bytes.NewReader(stream), len(stream)},
			{emblem.KindSystem, bytes.NewReader(sys), len(sys)},
		}
	} else {
		total, rr, err := readerLen(r)
		if err != nil {
			return nil, fmt.Errorf("core: sizing input: %w", err)
		}
		man.RawLen = total
		man.StreamLen = total
		sections = []archiveSection{{emblem.KindRaw, rr, total}}
	}
	for _, sec := range sections {
		if int64(sec.total) > math.MaxUint32 {
			return nil, fmt.Errorf("core: section of %d bytes exceeds the 4 GiB header limit", sec.total)
		}
	}

	// Plan → encode → place. The layout fixes every group's frames and
	// sheet before the first group is cut, so the pool (and its scratch)
	// never exceeds the frames there are to encode.
	p, err := newPlanner(opts, capacity, man, sections)
	if err != nil {
		return nil, err
	}
	vol := media.NewVolume(opts.Profile, opts.SheetFrames)
	if opts.Catalog {
		if err := vol.EnableCatalog(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if opts.Index {
		if err := vol.EnableIndex(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	last := p.groups[len(p.groups)-1]
	workers := resolveWorkers(opts.Workers, last.frame+last.size())
	scratch := make([]encScratch, workers)
	if err := pipelineGroups(p, sections, layout, vol, workers, scratch); err != nil {
		return nil, err
	}
	p.man.Sheets = last.sheet + 1

	// The deterministic archive identity both the catalog and the index
	// carry; computable only once every group checksum is collected.
	if opts.Catalog || opts.Index {
		p.man.ArchiveID = archiveID(p.opts, p.man, p.sums)
	}

	// Indexed volumes: marshal the selective-restore index once — block
	// and section tables are final after placement — so the catalog can
	// carry a replica and every sheet's index slot the same payload.
	var indexPayload []byte
	if opts.Index {
		x := &archindex.Index{
			ArchiveID:   p.man.ArchiveID,
			Compress:    opts.Compress,
			CatalogSlot: opts.Catalog,
			RawLen:      p.man.RawLen,
			StreamLen:   p.man.StreamLen,
			SystemLen:   p.man.SystemLen,
			GroupData:   opts.GroupData,
			GroupParity: mocoder.GroupParity,
			SheetFrames: opts.SheetFrames,
			Blocks:      idxBlocks,
			Sections:    idxSections,
		}
		if indexPayload, err = x.Marshal(capacity); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Catalog volumes: with every group placed the inventory is complete,
	// so render each sheet's catalog emblem and back-patch the reserved
	// slot 0 (byte-identical to having written it in sequence).
	if opts.Catalog {
		if err := p.fillCatalogs(vol, capacity, &scratch[0], indexPayload); err != nil {
			return nil, err
		}
		p.man.CatalogFrames = p.man.Sheets
	}
	if opts.Index {
		if err := p.fillIndexes(vol, indexPayload, &scratch[0]); err != nil {
			return nil, err
		}
		p.man.IndexFrames = p.man.Sheets
	}

	// Step 6: Bootstrap document.
	emu, mo, _, err := archivedPrograms()
	if err != nil {
		return nil, err
	}
	doc := bootstrap.New(opts.Profile.Name, layout, opts.GroupData, mocoder.GroupParity, emu, mo)
	doc.Catalog = opts.Catalog
	doc.Index = opts.Index

	arch := &Archived{
		Volume:        vol,
		Bootstrap:     doc,
		BootstrapText: doc.Render(),
		Manifest:      p.man,
		Options:       opts,
	}
	if vol.Sheets() == 1 {
		arch.Medium, _ = vol.Sheet(0)
	}
	return arch, nil
}

// maxHeaderFrames is what the emblem header can address: frame indices,
// group ids and sheet ordinals are uint16.
const maxHeaderFrames = math.MaxUint16 + 1

// archiveSection is one section of the archive stream: its emblem kind,
// its byte source and its exact length (known before the first group is
// cut — every frame header carries the section TotalLen). A query's
// replayed layout knows the lengths only and has no source.
type archiveSection struct {
	kind  emblem.Kind
	r     io.Reader
	total int
}

// groupExtent is one outer-code group's place in the archive layout: its
// id and shape, the section and stream extent it carries, the sheet it
// lands on, and its first frame in planner order (the header Index) and in
// scan order (reserved slots included).
type groupExtent struct {
	id             int
	sec            int // index of the group's section
	kind           emblem.Kind
	data, parity   int
	secOff, secLen int // byte extent within the group's section stream
	sheet          int
	frame          int // planner index of the group's first frame
	scanStart      int // global scan index of the group's first frame
}

func (g groupExtent) size() int { return g.data + g.parity }

// layoutGroups is the archive layout, the one place the group and sheet
// arithmetic lives. Each section is cut into capacity-sized chunks (an
// empty section still occupies one empty chunk, so every section produces
// at least one emblem carrying its TotalLen), the chunks into groups of
// groupData plus groupParity frames, and the groups onto sheets of
// sheetFrames frames whose first reserved slots hold the catalog and
// index emblems, cutting a new sheet whenever the next group would not
// fit (sheetFrames <= 0: one unbounded sheet). The archive planner cuts
// exactly these groups; a query replays them from the index's integers.
//
// A shape the emblem header cannot carry, a group larger than a sheet, or
// a layout whose scan frames pass maxFrames reports errIndexMiss, so the
// work and memory spent on a forged index stay bounded by maxFrames.
func layoutGroups(secs []archiveSection, capacity, groupData, groupParity, sheetFrames, reserved, maxFrames int) ([]groupExtent, error) {
	if capacity <= 0 || groupData <= 0 || groupData > math.MaxUint8 || groupParity < 0 || groupParity > math.MaxUint8 {
		return nil, errIndexMiss
	}
	usable := sheetFrames - reserved
	var out []groupExtent
	frame, scan := 0, 0 // planner and scan frames laid out so far
	sheet, fill := 0, 0 // open sheet and its placed (non-reserved) frames
	for si, s := range secs {
		if s.total < 0 {
			return nil, errIndexMiss
		}
		chunks := s.total / capacity
		if s.total%capacity != 0 || chunks == 0 {
			chunks++
		}
		for chunk := 0; chunk < chunks; {
			g := min(groupData, chunks-chunk)
			size := g + groupParity
			if sheetFrames > 0 {
				if size > usable {
					return nil, errIndexMiss
				}
				if fill+size > usable {
					sheet++
					fill = 0
				}
			}
			if fill == 0 {
				scan += reserved // a sheet opens with its reserved slots
			}
			if scan+size > maxFrames {
				return nil, errIndexMiss
			}
			out = append(out, groupExtent{
				id: len(out), sec: si, kind: s.kind, data: g, parity: groupParity,
				secOff: chunk * capacity, secLen: min((chunk+g)*capacity, s.total) - chunk*capacity,
				sheet: sheet, frame: frame, scanStart: scan,
			})
			frame += size
			scan += size
			fill += size
			chunk += g
		}
	}
	return out, nil
}

// planner owns the archive side's cross-frame state: the layout and the
// manifest tallies read from it. Group by group it reads the payload
// bytes, computes the parity payloads and fixes every frame's header —
// then hands the group to the emit callback and forgets it.
type planner struct {
	opts     Options
	capacity int
	groups   []groupExtent
	man      Manifest

	// Per-group checksum records (Options.Catalog or Options.Index only)
	// for the catalog and the archive identity, collected at planning time
	// — the padded data payloads the CRC covers are exactly what the
	// planner just built.
	sums []catalog.GroupSum
}

// newPlanner lays out the archive's groups and tallies the manifest from
// the layout. It refuses an archive the emblem header cannot address
// rather than wrap its frame indices and group ids (the restore side's
// loss arithmetic depends on monotonic ids); the layout's bound stops at
// what any addressable archive needs, its frames plus each sheet's
// reserved slots.
func newPlanner(opts Options, capacity int, man Manifest, sections []archiveSection) (*planner, error) {
	reserved := boolInt(opts.Catalog) + boolInt(opts.Index)
	groups, err := layoutGroups(sections, capacity, opts.GroupData, mocoder.GroupParity,
		opts.SheetFrames, reserved, (1+reserved)*maxHeaderFrames)
	if err != nil || groups[len(groups)-1].frame+groups[len(groups)-1].size() > maxHeaderFrames {
		return nil, fmt.Errorf("core: archive exceeds the header's %d-frame/group limit; split the input across volumes", maxHeaderFrames)
	}
	p := &planner{opts: opts, capacity: capacity, groups: groups, man: man}
	for _, g := range groups {
		if g.kind == emblem.KindSystem {
			p.man.SystemEmblems += g.data
		} else {
			p.man.DataEmblems += g.data
		}
		p.man.ParityEmblems += g.parity
	}
	last := groups[len(groups)-1]
	p.man.Groups = len(groups)
	p.man.TotalFrames = last.scanStart + last.size()
	return p, nil
}

// plan cuts the layout's groups in order, reading exactly each group's
// stream extent from its section.
func (p *planner) plan(sections []archiveSection, emit func(groupPlan) error) error {
	for _, g := range p.groups {
		sec := sections[g.sec]
		gp := groupPlan{tasks: make([]frameTask, 0, g.size())}
		add := func(payload []byte, k emblem.Kind, pos int) {
			gp.tasks = append(gp.tasks, frameTask{
				payload: payload,
				hdr: emblem.Header{
					Kind:        k,
					Index:       uint16(g.frame + pos),
					GroupID:     uint16(g.id),
					GroupPos:    uint8(pos),
					GroupData:   uint8(g.data),
					GroupParity: uint8(g.parity),
					TotalLen:    uint32(sec.total),
				},
			})
		}
		padded := make([][]byte, g.data)
		for i := range padded {
			buf := make([]byte, min(p.capacity, g.secLen-i*p.capacity))
			if _, err := io.ReadFull(sec.r, buf); err != nil {
				return fmt.Errorf("core: reading section stream: %w", err)
			}
			padded[i] = make([]byte, p.capacity)
			copy(padded[i], buf)
			add(buf, g.kind, i)
		}
		parity, err := mocoder.GroupParityPayloads(padded)
		if err != nil {
			return fmt.Errorf("core: group parity: %w", err)
		}
		if p.opts.Catalog || p.opts.Index {
			p.sums = append(p.sums, catalog.GroupSum{
				Kind: g.kind, Data: uint8(g.data), Parity: uint8(len(parity)),
				CRC: catalog.GroupCRC(padded),
			})
		}
		for i, par := range parity {
			add(par, emblem.KindParity, g.data+i)
		}
		if err := emit(gp); err != nil {
			return err
		}
	}
	return nil
}

// pipelineGroupDepth bounds how far the planner may run ahead of the
// placer, in whole queued groups. Frames in flight never exceed
// (pipelineGroupDepth+2)·GroupTotal — the queue plus the group being
// planned and the group being placed — which is the archive pipeline's
// peak-memory bound.
const pipelineGroupDepth = 2

// plannedGroup is a groupPlan in flight through the pipelined archive:
// the placer waits on done (closed when the encode pool has filled every
// frame slot), then reports the lowest-index frame error or writes the
// whole group to the volume.
type plannedGroup struct {
	tasks  []frameTask
	frames []*raster.Gray
	errs   []error
	left   int64 // frames not yet encoded; the last encoder closes done
	done   chan struct{}
}

// encodeTask is one frame of a plannedGroup awaiting rasterization.
type encodeTask struct {
	pg *plannedGroup
	i  int
}

// pipelineGroups runs plan → encode → place with the serial stages
// overlapped: a planner goroutine cuts groups and feeds the bounded
// groups queue (plan order, pipelineGroupDepth deep) and the frame-task
// channel; `workers` encode goroutines drain tasks into their group's
// frame slots; the placer — this goroutine — consumes the groups queue
// in order, waiting per group for its last frame. Output is byte-
// identical at any worker count: frame indices, headers and group order
// are fixed at planning time, and the placer writes whole groups in plan
// order. Errors are deterministic too — the first failing group in plan
// order reports its lowest-index frame error (cancelling the rest), and a
// planner error surfaces only once every group it emitted has been
// placed. Cancellation of the caller's context stops the placer at the
// next group and is returned as the context's error.
func pipelineGroups(p *planner, sections []archiveSection, layout emblem.Layout, vol *media.Volume, workers int, scratch []encScratch) error {
	ctx, cancel := context.WithCancel(orBackground(p.opts.Context))
	defer cancel()

	groups := make(chan *plannedGroup, pipelineGroupDepth)
	tasks := make(chan encodeTask, workers)

	// Plan stage. Every group reaches the groups queue before its frame
	// tasks are enqueued, so the queue order is the plan order. Once the
	// context is cancelled the planner may stop between a group's tasks;
	// the placer then stops waiting on done channels.
	planErr := make(chan error, 1)
	go func() {
		defer close(groups)
		defer close(tasks)
		emit := func(gp groupPlan) error {
			pg := &plannedGroup{
				tasks:  gp.tasks,
				frames: make([]*raster.Gray, len(gp.tasks)),
				errs:   make([]error, len(gp.tasks)),
				left:   int64(len(gp.tasks)),
				done:   make(chan struct{}),
			}
			select {
			case groups <- pg:
			case <-ctx.Done():
				return ctx.Err()
			}
			for i := range pg.tasks {
				select {
				case tasks <- encodeTask{pg, i}:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		}
		planErr <- p.plan(sections, emit)
	}()

	// Encode stage: the parallel middle. After cancellation the workers
	// keep draining tasks without encoding so every group's done channel
	// still closes.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for t := range tasks {
				if ctx.Err() == nil {
					ft := &t.pg.tasks[t.i]
					img, err := scratch[worker].enc.Encode(ft.payload, ft.hdr, layout)
					if err != nil {
						kind := "emblem"
						if ft.hdr.Kind == emblem.KindParity {
							kind = "parity emblem"
						}
						t.pg.errs[t.i] = fmt.Errorf("core: encoding %s: %w", kind, err)
					} else {
						t.pg.frames[t.i] = img
					}
				}
				if atomic.AddInt64(&t.pg.left, -1) == 0 {
					close(t.pg.done)
				}
			}
		}(w)
	}

	// Place stage, on the calling goroutine. After an error it keeps
	// draining the queue (without waiting) so the planner can unblock and
	// observe the cancellation.
	var placeErr error
	for pg := range groups {
		if placeErr != nil {
			continue
		}
		select {
		case <-pg.done:
		case <-ctx.Done():
		}
		// A cancelled run may leave frames unencoded: never place them.
		if placeErr = ctx.Err(); placeErr == nil {
			for _, err := range pg.errs {
				if err != nil {
					placeErr = err
					break
				}
			}
		}
		if placeErr == nil {
			if err := vol.WriteGroup(pg.frames); err != nil {
				placeErr = fmt.Errorf("core: writing medium: %w", err)
			}
		}
		if placeErr != nil {
			cancel()
		}
	}
	err := <-planErr
	wg.Wait()
	if placeErr != nil {
		return placeErr
	}
	return err
}

// orBackground resolves an optional caller context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// fillCatalogs renders one catalog emblem per sheet — shared archive
// identity, inventory, checksums, bootstrap replica — and back-patches
// each sheet's reserved slot 0. Runs after placement, when the whole
// inventory is known.
func (p *planner) fillCatalogs(vol *media.Volume, capacity int, scratch *encScratch, indexPayload []byte) error {
	emu, mo, _, err := archivedPrograms()
	if err != nil {
		return err
	}
	replica := catalog.EncodeEssentials(emu, mo)

	// The inventory is the layout's: each sheet opens with its reserved
	// slots and holds the groups laid out on it.
	reserved := vol.ReservedSlots()
	sheets := make([]catalog.SheetRange, p.man.Sheets)
	for _, g := range p.groups {
		s := &sheets[g.sheet]
		if s.Groups == 0 {
			s.StartFrame, s.StartGroup = g.scanStart-reserved, g.id
		}
		s.Groups++
		s.Frames = g.scanStart + g.size() - s.StartFrame
	}

	c := &catalog.Catalog{
		ArchiveID:    p.man.ArchiveID,
		SheetCount:   p.man.Sheets,
		TotalFrames:  p.man.TotalFrames,
		TotalGroups:  p.man.Groups,
		GroupData:    p.opts.GroupData,
		GroupParity:  mocoder.GroupParity,
		Layout:       p.opts.Profile.Layout,
		ProfileName:  p.opts.Profile.Name,
		Compress:     p.opts.Compress,
		RawLen:       p.man.RawLen,
		StreamLen:    p.man.StreamLen,
		SystemLen:    p.man.SystemLen,
		Instructions: catalog.Instructions(),
		Sheets:       sheets,
		Groups:       p.sums,
		Replica:      replica,
		IndexSlot:    p.opts.Index,
		IndexReplica: indexPayload,
	}
	return p.fillReserved(vol, emblem.KindCatalog, emblem.CatalogGroupID, scratch,
		func(s int) ([]byte, error) {
			c.Sheet = s
			return c.Marshal(capacity)
		}, vol.FillCatalog)
}

// fillIndexes renders the selective-restore index emblem — the same
// payload on every sheet, so any single surviving sheet can answer a
// range query — and back-patches each sheet's reserved index slot. Runs
// after placement, when the block and section tables and the archive
// identity are final.
func (p *planner) fillIndexes(vol *media.Volume, payload []byte, scratch *encScratch) error {
	return p.fillReserved(vol, emblem.KindIndex, emblem.IndexGroupID, scratch,
		func(int) ([]byte, error) { return payload, nil }, vol.FillIndex)
}

// fillReserved renders one out-of-band emblem of the given kind per sheet
// and back-patches it into the sheet's reserved slot through fill. Serial,
// on the caller's goroutine.
func (p *planner) fillReserved(vol *media.Volume, kind emblem.Kind, groupID uint16, scratch *encScratch,
	payload func(sheet int) ([]byte, error), fill func(sheet int, img *raster.Gray) error) error {
	for s := 0; s < vol.Sheets(); s++ {
		data, err := payload(s)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		hdr := emblem.Header{
			Kind:    kind,
			Index:   uint16(s),
			Total:   uint16(vol.Sheets()),
			GroupID: groupID,
			// GroupData 0 marks the frame as belonging to no outer-code
			// group; the assembler consumes it out-of-band.
			TotalLen: uint32(len(data)),
		}
		img, err := scratch.enc.Encode(data, hdr, p.opts.Profile.Layout)
		if err != nil {
			return fmt.Errorf("core: encoding %s emblem: %w", kind, err)
		}
		if err := fill(s, img); err != nil {
			return fmt.Errorf("core: placing %s emblem: %w", kind, err)
		}
	}
	return nil
}

// namedSections derives the index's named byte ranges from the raw
// archive: one table section per SQL-dump COPY block plus one column
// section per column. A column's extent is the minimal contiguous cover —
// its table's whole rows region, since row-major dumps interleave
// columns. Input that is not a SQL dump simply yields no named sections;
// range queries still work, table queries fall back to a full restore.
func namedSections(data []byte) []archindex.Section {
	secs, err := sqldump.Sections(data)
	if err != nil {
		return nil
	}
	var out []archindex.Section
	for _, s := range secs {
		out = append(out, archindex.Section{Kind: archindex.SectionTable, Name: s.Table, Off: s.Off, Len: s.Len})
	}
	for _, s := range secs {
		for _, c := range s.Columns {
			out = append(out, archindex.Section{Kind: archindex.SectionColumn, Name: s.Table + "." + c, Off: s.Off, Len: s.Len})
		}
	}
	return out
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// archiveID derives the deterministic archive identity rendered into
// every catalog emblem: FNV-64a over the layout, group shape, section
// lengths and every group checksum — any two archives with identical
// content and configuration share an id, any payload difference changes
// it.
func archiveID(opts Options, man Manifest, sums []catalog.GroupSum) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	for _, b := range []byte(opts.Profile.Name) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(uint64(opts.Profile.Layout.DataW))
	mix(uint64(opts.Profile.Layout.DataH))
	mix(uint64(opts.GroupData))
	mix(uint64(mocoder.GroupParity))
	mix(uint64(man.RawLen))
	mix(uint64(man.StreamLen))
	mix(uint64(man.SystemLen))
	for _, s := range sums {
		mix(uint64(s.CRC))
	}
	return h
}

// readerLen determines how many bytes r will deliver without consuming
// it: Len (bytes.Reader, strings.Reader, bytes.Buffer), Seek-to-end
// arithmetic (files), or full buffering as a last resort for unsized
// streams. The planner needs each section's length before the first group
// is cut, because every frame header carries the section TotalLen.
func readerLen(r io.Reader) (int, io.Reader, error) {
	if v, ok := r.(interface{ Len() int }); ok {
		return v.Len(), r, nil
	}
	if s, ok := r.(io.Seeker); ok {
		cur, err := s.Seek(0, io.SeekCurrent)
		if err == nil {
			end, err := s.Seek(0, io.SeekEnd)
			if err != nil {
				return 0, nil, err
			}
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return 0, nil, err
			}
			return int(end - cur), r, nil
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, err
	}
	return len(data), bytes.NewReader(data), nil
}

// encScratch is one worker's reusable frame-encode state, the archive
// side's counterpart of restore's emuScratch: the mocoder.Encoder holds
// the padded-payload, RS-codeword, interleave and bit-stream buffers plus
// the cached serpentine path. Each worker id owns exactly one goroutine
// for a run (see pipelineGroups), so the scratch is reused serially
// without locks and a steady-state frame encode allocates only the placed
// frame. The scratch slice outlives the groups, so the reuse carries
// across them.
type encScratch struct {
	enc mocoder.Encoder
}
