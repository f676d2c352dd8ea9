package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"microlonys/internal/archindex"
	"microlonys/internal/catalog"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/sqldump"
	"microlonys/media"
)

// Selective restore: indexed range and table queries that decode only the
// data frames a query's bytes occupy.
//
//	probe:    read one sheet's reserved index emblem (internal/archindex) —
//	          the logical→physical map every sheet carries
//	plan:     replay the archive's own layout (layoutGroups) from the
//	          index's integers, bounded by the volume's frame count,
//	          deriving every group's (sheet, frame, stream-offset)
//	          extent; map the requested raw range onto the archived stream
//	          (directly for raw archives, through the DBS1 restart-block
//	          table for compressed ones)
//	decode:   plan, in each overlapping group, only the data frames the
//	          stream span occupies for the restore executor — parity and
//	          whole sheets outside the query are never scanned — and
//	          assemble them through the full restore's assembler; a group
//	          with a failed planned frame is read whole in a second run
//	finish:   decompress only the overlapping restart blocks and trim to
//	          the exact byte range
//
// The result is byte-identical to the corresponding slice of a full
// restore, at any worker count. Every path that cannot proceed — no index
// slot, unreadable or corrupt index frames, an index contradicting the
// volume in hand — falls back to a full restore (counted in
// RestoreStats.IndexFallbacks), so a selective query never fails where a
// full restore would succeed.

// errIndexMiss reports that the index cannot answer a query: its derived
// geometry contradicts the volume in hand (damaged, stale or forged), or
// its section table does not list the name. The caller falls back to a
// full restore.
var errIndexMiss = errors.New("core: the index cannot answer the query")

// Range writes exactly bytes [off, off+length) of the original archive to
// w, from an indexed volume scanning only the data frames the range
// occupies (and the rest of a group only to recover it). The bytes are
// identical to the same slice of a full Restore. Volumes without a usable
// index fall back to a full restore.
func (r *Reader) Range(w io.Writer, off, length int) (*RestoreStats, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("%w: negative range %d:%d", ErrRestore, off, length)
	}
	// Compared without adding: off+length may overflow.
	inside := func(size int) error {
		if length > size-off {
			return fmt.Errorf("%w: range %d:%d beyond archive of %d bytes", ErrRestore, off, length, size)
		}
		return nil
	}
	return r.query(w,
		func(x *archindex.Index) (int, int, error) { return off, length, inside(x.RawLen) },
		func(data []byte) ([]byte, error) {
			if err := inside(len(data)); err != nil {
				return nil, err
			}
			return data[off : off+length], nil
		})
}

// Section writes one named section of the archive to w — a SQL-dump
// table ("nation") or column ("nation.n_name") — resolving the name
// through the index's section table. A column restores its minimal
// contiguous cover: the owning table's whole rows region. Names the index
// cannot resolve fall back to a full restore and are located there.
func (r *Reader) Section(w io.Writer, name string) (*RestoreStats, error) {
	return r.query(w,
		func(x *archindex.Index) (int, int, error) {
			if sec, ok := x.Lookup(name); ok {
				return sec.Off, sec.Len, nil
			}
			return 0, 0, errIndexMiss // a trimmed section table or an unknown name
		},
		func(data []byte) ([]byte, error) { return locateSection(data, name) })
}

// Index reads the volume's selective-restore index — archive identity,
// geometry, restart blocks, named sections — without decoding any payload
// group. There is no full-restore fallback: a volume with no readable
// index reports ErrRestore.
func (r *Reader) Index() (*archindex.Index, *RestoreStats, error) {
	st := r.newStats()
	x, err := r.readIndex(st)
	if err != nil {
		return nil, st, err
	}
	if x == nil {
		return nil, st, fmt.Errorf("%w: no readable selective-restore index", ErrRestore)
	}
	st.FramesSkipped = r.v.FrameCount() - st.FramesScanned
	return x, st, nil
}

// query answers a range or section query: resolve maps the volume's index
// to the query's raw byte extent, and selectiveRange decodes only the
// data frames that extent occupies. When the index cannot answer — none is
// readable, resolve or the geometry reports errIndexMiss — the query
// falls back to a full restore and locate finds the answer in the
// restored bytes, so a query never fails where a full restore would
// succeed. The answer is written to w only once it is final, so a
// fallback never follows bytes already written.
func (r *Reader) query(w io.Writer, resolve func(*archindex.Index) (off, length int, err error), locate func([]byte) ([]byte, error)) (*RestoreStats, error) {
	st := r.newStats()
	x, err := r.readIndex(st)
	if err != nil {
		return st, err
	}
	var out []byte
	err = errIndexMiss // until the index answers
	if x != nil {
		var off, length int
		if off, length, err = resolve(x); err == nil {
			out, err = r.selectiveRange(x, off, length, st)
		}
	}
	if errors.Is(err, errIndexMiss) {
		out, st, err = r.fullRestoreLocate(locate)
	}
	if err != nil {
		return st, err
	}
	if _, err := w.Write(out); err != nil {
		return st, fmt.Errorf("%w: writing output: %w", ErrRestore, err)
	}
	return st, nil
}

// fullRestoreLocate answers a query the index could not: a full restore,
// counted in IndexFallbacks, then locate finds the answer in the restored
// bytes.
func (r *Reader) fullRestoreLocate(locate func([]byte) ([]byte, error)) ([]byte, *RestoreStats, error) {
	var buf bytes.Buffer
	st, err := r.Restore(&buf)
	st.IndexFallbacks++
	if err != nil {
		return nil, st, err
	}
	out, err := locate(buf.Bytes())
	return out, st, err
}

// locateSection finds a table or column section in a restored SQL dump.
func locateSection(data []byte, name string) ([]byte, error) {
	secs, err := sqldump.Sections(data)
	if err != nil {
		return nil, fmt.Errorf("%w: locating %q: %w", ErrRestore, name, err)
	}
	table, column := name, ""
	if i := strings.IndexByte(name, '.'); i > 0 {
		table, column = name[:i], name[i+1:]
	}
	for _, s := range secs {
		if s.Table == name || (column != "" && s.Table == table && slices.Contains(s.Columns, column)) {
			return data[s.Off : s.Off+s.Len], nil
		}
	}
	return nil, fmt.Errorf("%w: no table or column %q in the archive", ErrRestore, name)
}

// readIndex probes the volume's reserved index slots sheet by sheet until
// one parses, decoding through the mode-faithful path (emulated modes run
// the archived MODecode program on the index frame too). When every index
// slot is unreadable it tries the catalog's compressed index replica.
// Returns nil — with RestoreStats.IndexFallbacks counted — when no usable
// index exists; the caller falls back to a full restore. The only error is
// cancellation, wrapping ErrRestore and the context's error: each probe
// checks ctx, so a query on a large damaged volume aborts between frame
// scans.
func (r *Reader) readIndex(st *RestoreStats) (*archindex.Index, error) {
	if !r.doc.Index {
		st.IndexFallbacks++
		return nil, nil
	}
	sheets, _ := volumePlan(r.v)
	// probe scans and decodes one reserved slot of every sheet that has it,
	// tallying each probe like the full pipeline would, until parse accepts
	// a frame of the wanted kind.
	probe := func(slot int, kind emblem.Kind, parse func([]byte) (*archindex.Index, error)) (*archindex.Index, error) {
		for s, m := range sheets {
			if m.FrameCount() <= slot {
				continue
			}
			var res frameResult
			keep := func(_ int, r *frameResult) error { res = *r; return nil }
			if err := decodeFrames(r.ctx, 1, sheets, []frameAddr{{s, slot}}, r.dec, keep); err != nil {
				return nil, err
			}
			st.FramesScanned++
			st.Sheets[s].Frames++
			if !res.decoded {
				st.FramesFailed++
				st.Sheets[s].FramesFailed++
				continue
			}
			if res.hdr.Kind != kind {
				continue
			}
			if x, err := parse(res.payload); err == nil {
				return x, nil
			}
		}
		return nil, nil
	}

	slot := boolInt(r.doc.Catalog) // the index slot follows the catalog slot
	x, err := probe(slot, emblem.KindIndex, archindex.Parse)
	if x != nil {
		st.IndexFrames++
	}
	if x == nil && err == nil && r.doc.Catalog {
		x, err = probe(0, emblem.KindCatalog, func(p []byte) (*archindex.Index, error) {
			c, err := catalog.Parse(p)
			if err != nil {
				return nil, err
			}
			return archindex.Parse(c.IndexReplica) // a trimmed replica fails to parse
		})
		if x != nil {
			st.CatalogFrames++
		}
	}
	if x == nil && err == nil {
		st.IndexFallbacks++
	}
	return x, err
}

// planGeometry replays the archive's layout from the index's dozen
// integers — the index stores parameters, not tables — deriving every
// group's physical extent, bounded by the volume in hand so a forged
// index costs no more than the volume's own frame count. A layout that
// contradicts the volume's frame and sheet totals (a damaged or stale
// index) reports errIndexMiss so the caller falls back to a full restore.
func planGeometry(x *archindex.Index, capacity int, v *media.Volume) ([]groupExtent, error) {
	secs := []archiveSection{{kind: emblem.KindRaw, total: x.RawLen}}
	if x.Compress {
		secs = []archiveSection{{kind: emblem.KindData, total: x.StreamLen}, {kind: emblem.KindSystem, total: x.SystemLen}}
	}
	// The index slot plus the optional catalog slot.
	geo, err := layoutGroups(secs, capacity, x.GroupData, x.GroupParity, x.SheetFrames, 1+boolInt(x.CatalogSlot), v.FrameCount())
	if err != nil {
		return nil, err
	}
	if last := geo[len(geo)-1]; last.scanStart+last.size() != v.FrameCount() || last.sheet+1 != v.Sheets() {
		return nil, errIndexMiss
	}
	return geo, nil
}

// selectiveRange restores raw bytes [off, off+length) through the index:
// it selects the minimal closed set of groups, plans only the data frames
// the stream span occupies, assembles them through the full restore's
// assembler — reading a group whole only to recover it — and decompresses
// only the overlapping restart blocks.
func (r *Reader) selectiveRange(x *archindex.Index, off, length int, st *RestoreStats) ([]byte, error) {
	capacity := mocoder.Capacity(r.doc.Layout)
	geo, err := planGeometry(x, capacity, r.v)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		st.FramesSkipped = r.v.FrameCount() - st.FramesScanned
		return []byte{}, nil
	}

	// Map the raw range onto the archived stream: raw archives read their
	// bytes directly; compressed archives read the DBS1 restart blocks the
	// range overlaps — or, with the block table trimmed from the index,
	// the whole stream (still skipping nothing but, under native mode, the
	// system groups).
	kind, total := emblem.KindRaw, x.RawLen
	spanOff, spanLen := off, length
	var blocks []dbcoder.SeekBlock
	if x.Compress {
		kind, total = emblem.KindData, x.StreamLen
		if len(x.Blocks) > 0 {
			lo := 0
			for lo < len(x.Blocks) && x.Blocks[lo].RawOff+x.Blocks[lo].RawLen <= off {
				lo++
			}
			hi := lo
			for hi < len(x.Blocks) && x.Blocks[hi].RawOff < off+length {
				hi++
			}
			if lo >= hi {
				return nil, errIndexMiss
			}
			blocks = x.Blocks[lo:hi]
			last := blocks[len(blocks)-1]
			spanOff = blocks[0].CompOff
			spanLen = last.CompOff + last.CompLen - spanOff
		} else {
			spanOff, spanLen = 0, x.StreamLen
		}
	}

	// The minimal closed set of groups: target-kind groups overlapping the
	// stream span, each planned at the data positions whose chunks overlap
	// the span, plus — under emulation — every system group at all its
	// data positions (the archived DBDecode program must be whole to run
	// at all). Parity and every other frame of the volume is skipped
	// without a single scan, unless a planned frame fails.
	asm := newAssembler(st, nil, capacity, r.ro.Partial)
	var first *openGroup // the first selected target-kind group
	for _, g := range geo {
		switch {
		case g.kind == kind && g.secOff < spanOff+spanLen && spanOff < g.secOff+g.secLen:
			lo := max(spanOff-g.secOff, 0) / capacity
			hi := min((spanOff+spanLen-g.secOff+capacity-1)/capacity, g.data)
			if og := asm.selectGroup(g, lo, hi); first == nil {
				first = og
			}
		case g.kind == emblem.KindSystem && r.ro.Mode != RestoreNative:
			asm.selectGroup(g, 0, g.data)
		}
	}
	if first == nil || first.secOff+first.lo*capacity > spanOff {
		return nil, errIndexMiss
	}
	sheets, all := volumePlan(r.v)
	for plan := asm.round(all); len(plan) > 0; plan = asm.round(all) {
		if err := decodeFrames(r.ctx, r.ro.Workers, sheets, plan, r.dec, asm.consume); err != nil {
			return nil, err
		}
	}

	// The target section's sink starts at the first selected group's first
	// written chunk, so trimming at the section's TotalLen stays exact — a
	// lost group (Partial mode) zero-fills exactly its stream extent, which
	// is what the full restore's trimmed sink writes.
	var span, sys bytes.Buffer
	firstOff := first.secOff + first.lo*capacity
	asm.sinks[kind] = &kindSink{w: &span, total: total, written: firstOff}
	asm.sinks[emblem.KindSystem] = &kindSink{w: &sys, total: x.SystemLen}
	err = asm.closePlanned()
	st.GroupsDecoded = len(st.Groups)
	if err != nil {
		return nil, err
	}
	if firstOff+span.Len() < spanOff+spanLen {
		return nil, errIndexMiss
	}
	stream := span.Bytes()[spanOff-firstOff : spanOff-firstOff+spanLen]
	if !x.Compress {
		st.FramesSkipped = r.v.FrameCount() - st.FramesScanned
		return stream, nil
	}

	// Decompress only the overlapping restart blocks, each independently
	// decodable — natively or through the archived DBDecode program
	// reassembled from the system groups.
	decompress, err := r.dec.dbDecoder(&sys)
	if err != nil {
		return nil, err
	}
	var out []byte
	if len(blocks) == 0 {
		raw, err := decompress(stream)
		if err != nil {
			return nil, err
		}
		if length > len(raw)-off {
			return nil, errIndexMiss
		}
		out = raw[off : off+length]
	} else {
		out = make([]byte, 0, length)
		for _, b := range blocks {
			raw, err := decompress(stream[b.CompOff-spanOff : b.CompOff-spanOff+b.CompLen])
			if err != nil {
				return nil, err
			}
			if len(raw) != b.RawLen {
				return nil, errIndexMiss
			}
			lo, hi := 0, b.RawLen
			if off > b.RawOff {
				lo = off - b.RawOff
			}
			if off+length < b.RawOff+b.RawLen {
				hi = off + length - b.RawOff
			}
			out = append(out, raw[lo:hi]...)
		}
	}
	st.FramesSkipped = r.v.FrameCount() - st.FramesScanned
	return out, nil
}
