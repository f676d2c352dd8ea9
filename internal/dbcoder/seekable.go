package dbcoder

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// # DBS1 container format — the seekable variant of DBC1
//
// A DBC1 archive is one continuous range-coded stream: the coder state at
// byte k depends on every token before it, so decoding cannot start in the
// middle. That is the right trade for a full restore, but selective restore
// (RestoreRange/RestoreTable) wants to decompress only the spans that
// overlap the requested bytes. DBS1 keeps the token format untouched and
// adds restart points *around* it: the raw input is cut into fixed-size
// blocks and each block is compressed as an independent, standalone DBC1
// archive. The archived DynaRisc DBDecode program therefore decodes a DBS1
// volume unchanged — it is simply run once per block.
//
//	offset  size  field
//	0       4     magic "DBS1"
//	4       4     total raw (uncompressed) length, little endian
//	8       4     CRC-32 (IEEE) of the whole raw data, little endian
//	12      4     block count n, little endian
//	16      8·n   per block: u32 raw length, u32 compressed length (LE)
//	16+8n   …     n concatenated standalone DBC1 archives
const SeekMagic = "DBS1"

// SeekHeaderSize is the byte length of the DBS1 container header before
// the block table.
const SeekHeaderSize = 16

// SeekBlock describes one independently decodable block of a DBS1 archive.
// RawOff/RawLen address the uncompressed stream; CompOff/CompLen address
// the container blob (CompOff points at the block's DBC1 magic).
type SeekBlock struct {
	RawOff, RawLen   int
	CompOff, CompLen int
}

// CompressSeekable returns the DBS1 archive for src with the default
// match-finder depth, cutting restart points every blockBytes raw bytes.
func CompressSeekable(src []byte, blockBytes int) []byte {
	return CompressSeekableDepth(src, DefaultDepth, blockBytes)
}

// CompressSeekableDepth is CompressSeekable with an explicit match-finder
// chain depth. A blockBytes ≤ 0 yields a single block (seekable container,
// DBC1-equivalent ratio). It compresses the blocks one after another.
func CompressSeekableDepth(src []byte, depth, blockBytes int) []byte {
	blocks := SplitSeekable(src, blockBytes)
	comps := make([][]byte, len(blocks))
	for b, block := range blocks {
		comps[b] = CompressDepth(block, depth)
	}
	return JoinSeekable(src, blocks, comps)
}

// SplitSeekable cuts src into the raw restart blocks of its DBS1 archive:
// one every blockBytes bytes, the last one short, none for an empty src;
// blockBytes ≤ 0 yields a single block. Each block compresses on its own
// (CompressDepth), so a caller may compress them in any order or at once
// and join the results with JoinSeekable.
func SplitSeekable(src []byte, blockBytes int) [][]byte {
	if blockBytes <= 0 {
		blockBytes = len(src)
	}
	var blocks [][]byte
	for lo := 0; lo < len(src); lo += blockBytes {
		blocks = append(blocks, src[lo:min(lo+blockBytes, len(src))])
	}
	return blocks
}

// JoinSeekable is the DBS1 writer: the container of src whose raw restart
// blocks are blocks (SplitSeekable's) and whose compressed blocks are
// comps, the standalone DBC1 archive of each block in the same order.
func JoinSeekable(src []byte, blocks, comps [][]byte) []byte {
	size := SeekHeaderSize + 8*len(blocks)
	for _, comp := range comps {
		size += len(comp)
	}
	out := make([]byte, SeekHeaderSize, size)
	copy(out, SeekMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(src)))
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(src))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(blocks)))
	for b, block := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(block)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(comps[b])))
	}
	for _, comp := range comps {
		out = append(out, comp...)
	}
	return out
}

// IsSeekable reports whether blob carries the DBS1 magic.
func IsSeekable(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == SeekMagic
}

// SeekTable parses the DBS1 block table, validating that the recorded
// raw/compressed extents are consistent with the blob. It never panics on
// truncated or bit-flipped input.
func SeekTable(blob []byte) ([]SeekBlock, error) {
	if !IsSeekable(blob) {
		return nil, ErrBadMagic
	}
	if len(blob) < SeekHeaderSize {
		return nil, fmt.Errorf("%w: truncated DBS1 header", ErrCorrupt)
	}
	rawLen := int(binary.LittleEndian.Uint32(blob[4:]))
	n := int(binary.LittleEndian.Uint32(blob[12:]))
	if n < 0 || n > (len(blob)-SeekHeaderSize)/8 {
		return nil, fmt.Errorf("%w: DBS1 block count %d exceeds blob", ErrCorrupt, n)
	}
	blocks := make([]SeekBlock, n)
	rawOff := 0
	compOff := SeekHeaderSize + 8*n
	for i := 0; i < n; i++ {
		ent := blob[SeekHeaderSize+8*i:]
		rl := int(binary.LittleEndian.Uint32(ent[0:]))
		cl := int(binary.LittleEndian.Uint32(ent[4:]))
		if rl < 0 || cl < 0 || cl > len(blob)-compOff || rl > rawLen-rawOff {
			return nil, fmt.Errorf("%w: DBS1 block %d extent out of range", ErrCorrupt, i)
		}
		blocks[i] = SeekBlock{RawOff: rawOff, RawLen: rl, CompOff: compOff, CompLen: cl}
		rawOff += rl
		compOff += cl
	}
	if rawOff != rawLen {
		return nil, fmt.Errorf("%w: DBS1 blocks cover %d of %d raw bytes", ErrCorrupt, rawOff, rawLen)
	}
	return blocks, nil
}

// decompressSeekable decodes a DBS1 archive block by block.
func decompressSeekable(blob []byte) ([]byte, error) {
	blocks, err := SeekTable(blob)
	if err != nil {
		return nil, err
	}
	rawLen := int(binary.LittleEndian.Uint32(blob[4:]))
	wantCRC := binary.LittleEndian.Uint32(blob[8:])
	hint := rawLen
	if hint > maxPrealloc {
		hint = maxPrealloc
	}
	out := make([]byte, 0, hint)
	for i, b := range blocks {
		piece, err := Decompress(blob[b.CompOff : b.CompOff+b.CompLen])
		if err != nil {
			return nil, fmt.Errorf("DBS1 block %d: %w", i, err)
		}
		if len(piece) != b.RawLen {
			return nil, fmt.Errorf("%w: DBS1 block %d yielded %d bytes, table records %d",
				ErrCorrupt, i, len(piece), b.RawLen)
		}
		out = append(out, piece...)
	}
	if crc32.ChecksumIEEE(out) != wantCRC {
		return nil, ErrCRC
	}
	return out, nil
}
