// Package columnar implements the compressed, columnar, database-specific
// layout scheme the paper names as DBCoder's next step (§3.1 "We are
// working on supporting more advanced database-specific, compressed,
// columnar layout schemes", §5 future work).
//
// The encoder understands the pg_dump-style SQL text archive: it locates
// every COPY ... FROM stdin block, transposes its tab-separated rows into
// columns, and encodes each column with a type-specific scheme inferred
// from the values:
//
//   - integers   → zigzag varints (delta, direct or frame-of-reference,
//     whichever measures smallest for the column)
//   - decimals   → scaled integers (fixed two-digit fraction), same coding
//   - dates      → packed y/m/d serials, same coding
//   - strings    → value dictionary (low cardinality), word dictionary
//     (small-vocabulary text such as TPC-H comments), or
//     length-prefixed verbatim text
//
// Everything outside the COPY rows (DDL, comments, the COPY headers)
// is preserved verbatim, and every type-specific column encoder verifies
// canonical round-tripping value-by-value at encode time, falling back to
// string coding otherwise — decoding is always bit-exact, not merely
// semantically equal. The transposed, typed streams are finally passed
// through the generic DBCoder entropy stage, so the measured gain over
// plain DBCoder isolates the layout change, which is exactly the
// comparison the paper's claim is about.
//
// The archived-decoder (DynaRisc) port of this layout is future work here
// as it is in the paper: a columnar archive currently ships with the
// native decoder only, so the ULE pipeline in internal/core keeps using
// the generic layout whose decoder is archived on the medium.
package columnar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"microlonys/internal/dbcoder"
)

// Magic identifies a columnar archive blob.
const Magic = "CLC1"

// Column encoding tags.
const (
	colString byte = iota // length-prefixed verbatim text
	colDict               // ≤255 distinct values: dictionary + 1-byte refs
	colInt                // canonical integers: zigzag varints
	colDec                // canonical d+.dd decimals: scaled zigzag varints
	colDate               // canonical YYYY-MM-DD: packed serial varints
	colWords              // space-joined words: dictionary + varint refs
)

// Numeric columns carry a mode byte choosing the representation: sorted
// key columns favour first differences, random-valued columns (prices,
// quantities) favour direct values, and offset ranges (dates, keys with
// a floor) favour frame-of-reference — the encoder measures all three.
const (
	modeDelta  byte = iota
	modeDirect      // zigzag varint of each value
	modeFOR         // zigzag varint of column min, then varints of v-min
)

// Errors.
var (
	ErrNotArchive = errors.New("columnar: input is not a recognisable SQL archive")
	ErrCorrupt    = errors.New("columnar: corrupt blob")
)

// rowsMarker replaces a COPY block's row region inside the preserved
// frame text. The byte cannot appear in a text archive.
const rowsMarker = 0x00

// copyBlock is one COPY region located in the dump.
type copyBlock struct {
	rows [][]string // rows[r][c]
	cols int
}

// Compress encodes a pg_dump-style SQL text archive into the columnar
// layout. Inputs that do not contain at least one COPY block are
// rejected (use the generic DBCoder for arbitrary payloads).
func Compress(dump []byte) ([]byte, error) {
	frame, blocks, err := split(dump)
	if err != nil {
		return nil, err
	}

	var body bytes.Buffer
	putUvarint(&body, uint64(len(frame)))
	body.Write(frame)
	putUvarint(&body, uint64(len(blocks)))
	for _, blk := range blocks {
		putUvarint(&body, uint64(blk.cols))
		putUvarint(&body, uint64(len(blk.rows)))
		for c := 0; c < blk.cols; c++ {
			col := make([]string, len(blk.rows))
			for r, row := range blk.rows {
				col[r] = row[c]
			}
			encodeColumn(&body, col)
		}
	}

	// Generic entropy stage on the transposed, typed streams.
	packed := dbcoder.Compress(body.Bytes())

	out := make([]byte, 0, len(packed)+12)
	out = append(out, Magic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(dump)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(dump))
	out = append(out, packed...)
	return out, nil
}

// Decompress restores the exact SQL archive bytes.
func Decompress(blob []byte) ([]byte, error) {
	if len(blob) < 12 || string(blob[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rawLen := binary.BigEndian.Uint32(blob[4:8])
	wantCRC := binary.BigEndian.Uint32(blob[8:12])
	body, err := dbcoder.Decompress(blob[12:])
	if err != nil {
		return nil, fmt.Errorf("%w: entropy stage: %v", ErrCorrupt, err)
	}
	r := bytes.NewReader(body)

	frameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: frame length", ErrCorrupt)
	}
	frame := make([]byte, frameLen)
	if _, err := r.Read(frame); err != nil {
		return nil, fmt.Errorf("%w: frame", ErrCorrupt)
	}
	nBlocks, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: block count", ErrCorrupt)
	}

	var out bytes.Buffer
	out.Grow(int(rawLen))
	rest := frame
	for b := uint64(0); b < nBlocks; b++ {
		i := bytes.IndexByte(rest, rowsMarker)
		if i < 0 {
			return nil, fmt.Errorf("%w: marker %d missing", ErrCorrupt, b)
		}
		out.Write(rest[:i])
		rest = rest[i+1:]

		cols, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: block %d cols", ErrCorrupt, b)
		}
		nRows, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: block %d rows", ErrCorrupt, b)
		}
		columns := make([][]string, cols)
		for c := range columns {
			col, err := decodeColumn(r, int(nRows))
			if err != nil {
				return nil, fmt.Errorf("%w: block %d col %d: %v", ErrCorrupt, b, c, err)
			}
			columns[c] = col
		}
		for row := 0; row < int(nRows); row++ {
			for c := range columns {
				if c > 0 {
					out.WriteByte('\t')
				}
				out.WriteString(columns[c][row])
			}
			out.WriteByte('\n')
		}
	}
	out.Write(rest)

	if out.Len() != int(rawLen) {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, out.Len(), rawLen)
	}
	if crc32.ChecksumIEEE(out.Bytes()) != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return out.Bytes(), nil
}

// IsColumnar reports whether blob carries the columnar magic.
func IsColumnar(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == Magic
}

// split separates the dump into frame text (with one marker byte per
// COPY block) and the per-block row matrices.
func split(dump []byte) ([]byte, []copyBlock, error) {
	if bytes.IndexByte(dump, rowsMarker) >= 0 {
		return nil, nil, fmt.Errorf("%w: contains NUL", ErrNotArchive)
	}
	var frame bytes.Buffer
	var blocks []copyBlock
	rest := dump
	for {
		// A COPY block starts after a "COPY ... FROM stdin;\n" line and
		// runs to the "\.\n" terminator.
		idx := bytes.Index(rest, []byte("FROM stdin;\n"))
		if idx < 0 {
			break
		}
		hdrEnd := idx + len("FROM stdin;\n")
		// The COPY line must start at a line boundary naming a table.
		lineStart := bytes.LastIndexByte(rest[:idx], '\n') + 1
		if !bytes.HasPrefix(rest[lineStart:], []byte("COPY ")) {
			frame.Write(rest[:hdrEnd])
			rest = rest[hdrEnd:]
			continue
		}
		end := bytes.Index(rest[hdrEnd:], []byte("\\.\n"))
		if end < 0 {
			return nil, nil, fmt.Errorf("%w: unterminated COPY block", ErrNotArchive)
		}
		rowsText := rest[hdrEnd : hdrEnd+end]

		blk, err := parseRows(rowsText)
		if err != nil {
			return nil, nil, err
		}
		frame.Write(rest[:hdrEnd])
		frame.WriteByte(rowsMarker)
		blocks = append(blocks, blk)
		rest = rest[hdrEnd+end:]
	}
	frame.Write(rest)
	if len(blocks) == 0 {
		return nil, nil, ErrNotArchive
	}
	return frame.Bytes(), blocks, nil
}

// parseRows transposes a COPY row region. Every row must have the same
// field count for the block to be columnarisable.
func parseRows(text []byte) (copyBlock, error) {
	var blk copyBlock
	if len(text) == 0 {
		return blk, nil
	}
	if text[len(text)-1] != '\n' {
		return blk, fmt.Errorf("%w: row region not newline-terminated", ErrNotArchive)
	}
	for _, line := range bytes.Split(text[:len(text)-1], []byte("\n")) {
		fields := bytes.Split(line, []byte("\t"))
		row := make([]string, len(fields))
		for i, f := range fields {
			row[i] = string(f)
		}
		if blk.cols == 0 {
			blk.cols = len(row)
		} else if len(row) != blk.cols {
			return blk, fmt.Errorf("%w: ragged COPY rows", ErrNotArchive)
		}
		blk.rows = append(blk.rows, row)
	}
	return blk, nil
}

// ---- column encodings ---------------------------------------------------

// encodeColumn picks the densest type-specific representation whose
// canonical re-rendering reproduces every value byte-for-byte.
func encodeColumn(w *bytes.Buffer, col []string) {
	if vals, ok := asInts(col); ok {
		writeNumeric(w, colInt, vals)
		return
	}
	if vals, ok := asDecimals(col); ok {
		writeNumeric(w, colDec, vals)
		return
	}
	if vals, ok := asDates(col); ok {
		writeNumeric(w, colDate, vals)
		return
	}

	// Text: measure the candidate encodings and keep the smallest.
	var plain bytes.Buffer
	plain.WriteByte(colString)
	for _, s := range col {
		putUvarint(&plain, uint64(len(s)))
		plain.WriteString(s)
	}
	best := plain.Bytes()

	if dict, refs, ok := asDict(col); ok {
		var b bytes.Buffer
		b.WriteByte(colDict)
		putUvarint(&b, uint64(len(dict)))
		for _, s := range dict {
			putUvarint(&b, uint64(len(s)))
			b.WriteString(s)
		}
		b.Write(refs)
		if b.Len() < len(best) {
			best = b.Bytes()
		}
	}
	if words, refs, ok := asWords(col); ok {
		var b bytes.Buffer
		b.WriteByte(colWords)
		putUvarint(&b, uint64(len(words)))
		for _, s := range words {
			putUvarint(&b, uint64(len(s)))
			b.WriteString(s)
		}
		for _, vr := range refs {
			putUvarint(&b, uint64(len(vr)))
			for _, id := range vr {
				putUvarint(&b, uint64(id))
			}
		}
		if b.Len() < len(best) {
			best = b.Bytes()
		}
	}
	w.Write(best)
}

// writeNumeric emits the smallest of the delta, direct and
// frame-of-reference varint forms.
func writeNumeric(w *bytes.Buffer, tag byte, vals []int64) {
	var delta, direct, forBuf bytes.Buffer
	writeDeltas(&delta, vals)
	for _, v := range vals {
		putUvarint(&direct, uint64((v<<1)^(v>>63)))
	}
	min := vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
	}
	putUvarint(&forBuf, uint64((min<<1)^(min>>63)))
	for _, v := range vals {
		putUvarint(&forBuf, uint64(v-min))
	}

	w.WriteByte(tag)
	switch {
	case delta.Len() <= direct.Len() && delta.Len() <= forBuf.Len():
		w.WriteByte(modeDelta)
		w.Write(delta.Bytes())
	case forBuf.Len() < direct.Len():
		w.WriteByte(modeFOR)
		w.Write(forBuf.Bytes())
	default:
		w.WriteByte(modeDirect)
		w.Write(direct.Bytes())
	}
}

// decodeColumn reverses encodeColumn for n values.
func decodeColumn(r *bytes.Reader, n int) ([]string, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	col := make([]string, n)
	switch tag {
	case colInt, colDec, colDate:
		mode, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		var vals []int64
		switch mode {
		case modeDelta:
			vals, err = readDeltas(r, n)
		case modeDirect:
			vals = make([]int64, n)
			for i := 0; i < n; i++ {
				u, e := binary.ReadUvarint(r)
				if e != nil {
					err = e
					break
				}
				vals[i] = int64(u>>1) ^ -int64(u&1)
			}
		case modeFOR:
			u, e := binary.ReadUvarint(r)
			if e != nil {
				return nil, e
			}
			min := int64(u>>1) ^ -int64(u&1)
			vals = make([]int64, n)
			for i := 0; i < n; i++ {
				u, e := binary.ReadUvarint(r)
				if e != nil {
					err = e
					break
				}
				vals[i] = min + int64(u)
			}
		default:
			return nil, fmt.Errorf("unknown numeric mode %d", mode)
		}
		if err != nil {
			return nil, err
		}
		for i, v := range vals {
			switch tag {
			case colInt:
				col[i] = strconv.FormatInt(v, 10)
			case colDec:
				col[i] = renderDecimal(v)
			default:
				col[i] = renderDate(v)
			}
		}
	case colDict:
		dn, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		dict := make([]string, dn)
		for i := range dict {
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, ln)
			if _, err := r.Read(buf); err != nil {
				return nil, err
			}
			dict[i] = string(buf)
		}
		for i := 0; i < n; i++ {
			ref, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			if int(ref) >= len(dict) {
				return nil, fmt.Errorf("dict ref %d of %d", ref, len(dict))
			}
			col[i] = dict[ref]
		}
	case colWords:
		wn, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		words := make([]string, wn)
		for i := range words {
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, ln)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			words[i] = string(buf)
		}
		var sb strings.Builder
		for i := 0; i < n; i++ {
			cnt, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			sb.Reset()
			for k := uint64(0); k < cnt; k++ {
				id, err := binary.ReadUvarint(r)
				if err != nil {
					return nil, err
				}
				if id >= wn {
					return nil, fmt.Errorf("word ref %d of %d", id, wn)
				}
				if k > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(words[id])
			}
			col[i] = sb.String()
		}
	case colString:
		for i := 0; i < n; i++ {
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, ln)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			col[i] = string(buf)
		}
	default:
		return nil, fmt.Errorf("unknown column tag %d", tag)
	}
	return col, nil
}

// asInts returns the column as int64s if every value is a canonical
// integer (re-rendering reproduces the text exactly).
func asInts(col []string) ([]int64, bool) {
	vals := make([]int64, len(col))
	for i, s := range col {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || strconv.FormatInt(v, 10) != s {
			return nil, false
		}
		vals[i] = v
	}
	return vals, len(col) > 0
}

// asDecimals matches canonical d+.dd decimals (the TPC-H money type).
func asDecimals(col []string) ([]int64, bool) {
	vals := make([]int64, len(col))
	for i, s := range col {
		dot := len(s) - 3
		if dot < 1 || s[dot] != '.' {
			return nil, false
		}
		whole, err := strconv.ParseInt(s[:dot], 10, 64)
		if err != nil {
			return nil, false
		}
		frac, err := strconv.ParseInt(s[dot+1:], 10, 64)
		if err != nil || frac < 0 {
			return nil, false
		}
		v := whole*100 + frac
		if whole < 0 || s[0] == '-' {
			v = whole*100 - frac
		}
		vals[i] = v
		if renderDecimal(v) != s {
			return nil, false
		}
	}
	return vals, len(col) > 0
}

func renderDecimal(v int64) string {
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	return fmt.Sprintf("%s%d.%02d", sign, v/100, v%100)
}

// asDates matches canonical YYYY-MM-DD dates, packed as y<<9|m<<5|d.
func asDates(col []string) ([]int64, bool) {
	vals := make([]int64, len(col))
	for i, s := range col {
		if len(s) != 10 || s[4] != '-' || s[7] != '-' {
			return nil, false
		}
		y, err1 := strconv.Atoi(s[:4])
		m, err2 := strconv.Atoi(s[5:7])
		d, err3 := strconv.Atoi(s[8:])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, false
		}
		if m < 1 || m > 12 || d < 1 || d > 31 {
			return nil, false
		}
		v := int64(y)<<9 | int64(m)<<5 | int64(d)
		vals[i] = v
		if renderDate(v) != s {
			return nil, false
		}
	}
	return vals, len(col) > 0
}

func renderDate(v int64) string {
	return fmt.Sprintf("%04d-%02d-%02d", v>>9, (v>>5)&15, v&31)
}

// maxWordDict bounds the per-column word dictionary.
const maxWordDict = 1 << 16

// asWords tokenises every value into single-space-separated words and
// builds a shared word dictionary — the encoding that exploits the
// small-vocabulary text columns (TPC-H comments) a database generates.
// Values that do not re-join canonically (double spaces, leading or
// trailing space) disqualify the column.
func asWords(col []string) (words []string, refs [][]int, ok bool) {
	index := map[string]int{}
	refs = make([][]int, len(col))
	for i, s := range col {
		parts := strings.Split(s, " ")
		for _, w := range parts {
			if w == "" && len(parts) > 1 {
				return nil, nil, false // double/leading/trailing space
			}
		}
		ids := make([]int, len(parts))
		for k, w := range parts {
			id, seen := index[w]
			if !seen {
				if len(words) == maxWordDict {
					return nil, nil, false
				}
				id = len(words)
				index[w] = id
				words = append(words, w)
			}
			ids[k] = id
		}
		refs[i] = ids
	}
	return words, refs, len(col) > 0
}

// asDict builds a dictionary encoding when the column has at most 255
// distinct values and the dictionary pays for itself.
func asDict(col []string) (dict []string, refs []byte, ok bool) {
	index := map[string]int{}
	refs = make([]byte, len(col))
	dictBytes := 0
	for i, s := range col {
		id, seen := index[s]
		if !seen {
			if len(dict) == 255 {
				return nil, nil, false
			}
			id = len(dict)
			index[s] = id
			dict = append(dict, s)
			dictBytes += len(s) + 1
		}
		refs[i] = byte(id)
	}
	// Worth it only if refs+dict beat plain length-prefixed text.
	plain := 0
	for _, s := range col {
		plain += len(s) + 1
	}
	if dictBytes+len(refs) >= plain {
		return nil, nil, false
	}
	return dict, refs, true
}

// ---- varint helpers -------------------------------------------------------

func putUvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// writeDeltas emits zigzag-encoded first differences.
func writeDeltas(w *bytes.Buffer, vals []int64) {
	prev := int64(0)
	for _, v := range vals {
		d := v - prev
		prev = v
		putUvarint(w, uint64((d<<1)^(d>>63)))
	}
}

func readDeltas(r *bytes.Reader, n int) ([]int64, error) {
	vals := make([]int64, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		u, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		d := int64(u>>1) ^ -int64(u&1)
		prev += d
		vals[i] = prev
	}
	return vals, nil
}
