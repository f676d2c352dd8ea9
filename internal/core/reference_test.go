package core

// The seed (pre-Volume, fully buffered) formulations of the archive split
// stage and the restore reassemble stage, kept verbatim as references: the
// streaming group planner and the group-incremental assembler are
// differentially pinned against them (volume_stream_test.go), and the
// older scratch/chunk tests keep exercising them under their seed names.

import (
	"context"
	"fmt"
	"sort"

	"microlonys/dynarisc"
	"microlonys/internal/bootstrap"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/slots"
	"microlonys/media"
	"microlonys/raster"
)

// framePlan is the output of the seed split stage.
type framePlan struct {
	tasks []frameTask
	man   Manifest
}

// splitStage is the seed buffered planner: DBCoder, chunking, outer-code
// groups and header fixup over whole in-memory streams.
func splitStage(data []byte, opts Options, capacity int) (*framePlan, error) {
	stream := data
	kind := emblem.KindRaw
	if opts.Compress {
		depth := opts.CompressDepth
		if depth <= 0 {
			depth = dbcoder.DefaultDepth
		}
		stream = dbcoder.CompressDepth(data, depth)
		kind = emblem.KindData
	}

	plan := &framePlan{man: Manifest{RawLen: len(data), StreamLen: len(stream)}}

	type section struct {
		kind   emblem.Kind
		stream []byte
	}
	sections := []section{{kind, stream}}
	if opts.Compress {
		_, _, prog, err := archivedPrograms()
		if err != nil {
			return nil, err
		}
		sys := bootstrap.MarshalDynaRisc(prog)
		plan.man.SystemLen = len(sys)
		sections = append(sections, section{emblem.KindSystem, sys})
	}

	groupID := 0
	frameIdx := 0
	for _, sec := range sections {
		chunks := splitChunks(sec.stream, capacity)
		for len(chunks) > 0 {
			g := opts.GroupData
			if g > len(chunks) {
				g = len(chunks)
			}
			group := chunks[:g]
			chunks = chunks[g:]

			padded := make([][]byte, g)
			for i, c := range group {
				p := make([]byte, capacity)
				copy(p, c)
				padded[i] = p
			}
			parity, err := mocoder.GroupParityPayloads(padded)
			if err != nil {
				return nil, fmt.Errorf("core: group parity: %w", err)
			}

			emit := func(payload []byte, k emblem.Kind, pos int) {
				plan.tasks = append(plan.tasks, frameTask{
					payload: payload,
					hdr: emblem.Header{
						Kind:        k,
						Index:       uint16(frameIdx),
						GroupID:     uint16(groupID),
						GroupPos:    uint8(pos),
						GroupData:   uint8(g),
						GroupParity: uint8(mocoder.GroupParity),
						TotalLen:    uint32(len(sec.stream)),
					},
				})
				frameIdx++
			}
			for i, c := range group {
				emit(c, sec.kind, i)
				if sec.kind == emblem.KindSystem {
					plan.man.SystemEmblems++
				} else {
					plan.man.DataEmblems++
				}
			}
			for i, p := range parity {
				emit(p, emblem.KindParity, g+i)
				plan.man.ParityEmblems++
			}
			groupID++
		}
	}
	plan.man.Groups = groupID
	plan.man.TotalFrames = len(plan.tasks)
	return plan, nil
}

// encodeStage is the seed whole-plan encode: every planned frame at once,
// with per-call scratch.
func encodeStage(ctx context.Context, tasks []frameTask, layout emblem.Layout, workers int) ([]*raster.Gray, error) {
	scratch := make([]encScratch, slots.Workers(workers, len(tasks)))
	return encodeFrames(ctx, tasks, layout, workers, scratch)
}

// encodeFrames is the pre-pipeline encode stage: it rasterizes one group
// plan's frames on the frame pool, each worker writing only frames[i], so
// the result order matches the plan regardless of scheduling; the first
// encode error cancels the rest.
func encodeFrames(ctx context.Context, tasks []frameTask, layout emblem.Layout, workers int, scratch []encScratch) ([]*raster.Gray, error) {
	frames := make([]*raster.Gray, len(tasks))
	err := slots.ForEach(ctx, workers, len(tasks), func(_ context.Context, worker, i int) error {
		img, err := scratch[worker].enc.Encode(tasks[i].payload, tasks[i].hdr, layout)
		if err != nil {
			kind := "emblem"
			if tasks[i].hdr.Kind == emblem.KindParity {
				kind = "parity emblem"
			}
			return fmt.Errorf("core: encoding %s: %w", kind, err)
		}
		frames[i] = img
		return nil
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// splitChunks cuts a stream into capacity-sized chunks (the last may be
// short). An empty stream still occupies one empty chunk, so every
// section produces at least one emblem carrying its TotalLen.
func splitChunks(stream []byte, capacity int) [][]byte {
	var out [][]byte
	for len(stream) > 0 {
		n := capacity
		if n > len(stream) {
			n = len(stream)
		}
		out = append(out, stream[:n])
		stream = stream[n:]
	}
	if len(out) == 0 {
		out = [][]byte{{}}
	}
	return out
}

// referenceDecode is the seed scan+decode stage over a single medium.
func referenceDecode(ctx context.Context, m *media.Medium, layout emblem.Layout, ro RestoreOptions, moProg *dynarisc.Program) ([]frameResult, error) {
	results := make([]frameResult, m.FrameCount())
	scratch := make([]emuScratch, slots.Workers(ro.Workers, len(results)))
	err := slots.ForEach(ctx, ro.Workers, len(results), func(_ context.Context, worker, i int) error {
		scan, err := m.ScanFrame(i)
		if err != nil {
			return fmt.Errorf("%w: scanning frame %d: %v", ErrRestore, i, err)
		}
		res := &results[i]
		res.scanned = true
		switch ro.Mode {
		case RestoreNative:
			var stats *mocoder.Stats
			res.payload, res.hdr, stats, err = mocoder.Decode(scan, layout)
			if stats != nil {
				res.corrected = stats.BytesCorrected
			}
		default:
			res.payload, res.hdr, err = decodeFrameEmulated(&scratch[worker], moProg, scan, layout, ro.Mode)
		}
		res.decoded = err == nil
		return nil
	})
	return results, err
}

// referenceReassemble is the seed buffered reassemble stage: group the
// decoded payloads by header GroupID, recover, concatenate, decompress.
func referenceReassemble(results []frameResult, capacity int, mode Mode, st *RestoreStats) ([]byte, *RestoreStats, error) {
	type groupState struct {
		members map[int][]byte
		data    int
		parity  int
		kind    emblem.Kind
		total   uint32
	}
	groups := map[int]*groupState{}
	decoded := 0
	for i := range results {
		fp := &results[i]
		if !fp.decoded {
			st.FramesFailed++
			continue
		}
		decoded++
		st.BytesCorrected += fp.corrected
		gid := int(fp.hdr.GroupID)
		g := groups[gid]
		if g == nil {
			g = &groupState{members: map[int][]byte{}}
			groups[gid] = g
		}
		padded := make([]byte, capacity)
		copy(padded, fp.payload)
		g.members[int(fp.hdr.GroupPos)] = padded
		if int(fp.hdr.GroupData) > 0 {
			g.data = int(fp.hdr.GroupData)
			g.parity = int(fp.hdr.GroupParity)
		}
		if fp.hdr.Kind != emblem.KindParity {
			g.kind = fp.hdr.Kind
			g.total = fp.hdr.TotalLen
		}
	}
	if decoded == 0 {
		return nil, st, fmt.Errorf("%w: no readable frames", ErrRestore)
	}

	gids := make([]int, 0, len(groups))
	for gid := range groups {
		gids = append(gids, gid)
	}
	sort.Ints(gids)

	streams := map[emblem.Kind][]byte{}
	totals := map[emblem.Kind]uint32{}
	for _, gid := range gids {
		g := groups[gid]
		if g.kind == 0 {
			return nil, st, fmt.Errorf("%w: group %d has no readable data emblems", ErrRestore, gid)
		}
		full := make([][]byte, g.data+g.parity)
		missing := 0
		for pos := range full {
			if p, ok := g.members[pos]; ok {
				full[pos] = p
			} else {
				missing++
			}
		}
		if missing > 0 {
			if err := mocoder.RecoverGroup(full); err != nil {
				return nil, st, fmt.Errorf("%w: group %d: %v", ErrRestore, gid, err)
			}
			st.GroupsRecovered++
		}
		for pos := 0; pos < g.data; pos++ {
			streams[g.kind] = append(streams[g.kind], full[pos]...)
		}
		totals[g.kind] = g.total
	}

	finish := func(k emblem.Kind) ([]byte, bool) {
		s, ok := streams[k]
		if !ok {
			return nil, false
		}
		t := int(totals[k])
		if t > len(s) {
			return nil, false
		}
		return s[:t], true
	}

	if raw, ok := finish(emblem.KindRaw); ok {
		return raw, st, nil
	}
	blob, ok := finish(emblem.KindData)
	if !ok {
		return nil, st, fmt.Errorf("%w: no data stream recovered", ErrRestore)
	}

	switch mode {
	case RestoreNative:
		out, err := dbcoder.Decompress(blob)
		if err != nil {
			return nil, st, fmt.Errorf("%w: %v", ErrRestore, err)
		}
		return out, st, nil
	default:
		sys, ok := finish(emblem.KindSystem)
		if !ok {
			return nil, st, fmt.Errorf("%w: system emblems (DBDecode) missing", ErrRestore)
		}
		dbProg, err := bootstrap.UnmarshalDynaRisc(sys)
		if err != nil {
			return nil, st, fmt.Errorf("%w: system emblem payload: %v", ErrRestore, err)
		}
		out, err := runDBDecode(dbProg, blob, mode)
		if err != nil {
			return nil, st, fmt.Errorf("%w: %v", ErrRestore, err)
		}
		if err := verifyDBDecodeOutput(blob, out); err != nil {
			return nil, st, err
		}
		return out, st, nil
	}
}

// referenceRestore is the seed end-to-end restore over a single medium:
// decode everything, then reassemble everything.
func referenceRestore(m *media.Medium, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrRestore, err)
	}
	layout := doc.Layout
	capacity := mocoder.Capacity(layout)
	st := &RestoreStats{Mode: ro.Mode}

	var moProg *dynarisc.Program
	if ro.Mode != RestoreNative {
		if moProg, err = doc.MODecodeProgram(); err != nil {
			return nil, st, fmt.Errorf("%w: bootstrap MODecode: %v", ErrRestore, err)
		}
	}

	results, err := referenceDecode(context.Background(), m, layout, ro, moProg)
	for i := range results {
		if results[i].scanned {
			st.FramesScanned++
		}
	}
	if err != nil {
		return nil, st, err
	}
	return referenceReassemble(results, capacity, ro.Mode, st)
}
