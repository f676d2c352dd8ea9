// Package lz77 provides the hash-chain match finder behind DBCoder's LZ77
// layer (§3.1). It locates back-references (distance, length) in a sliding
// window; the entropy stage (internal/rangecoder) turns the resulting token
// stream into bits.
package lz77

import (
	"encoding/binary"
	"math/bits"
)

const (
	// MinMatch is the shortest match the finder reports. Shorter rep-matches
	// are handled by the caller against its last-distance register.
	MinMatch = 3
	// MaxMatch is the longest match representable by the DBC1 length coder.
	MaxMatch = 273
	// MaxDistance bounds the window the finder searches.
	MaxDistance = 1 << 20

	hashBits = 16
	hashSize = 1 << hashBits
)

// Match is a back-reference into the already-emitted stream.
type Match struct {
	Distance int // 1-based distance back from the current position
	Length   int
}

// Finder finds matches in a fixed input buffer using hash chains over
// 3-byte prefixes.
type Finder struct {
	src   []byte
	head  []int32 // hash -> most recent position
	prev  []int32 // position -> previous position with same hash
	depth int     // max chain links to follow
}

// NewFinder returns a finder over src. depth bounds the chain walk per
// query; 0 selects the default of 64, a good speed/ratio compromise —
// higher favours ratio.
func NewFinder(src []byte, depth int) *Finder {
	if depth <= 0 {
		depth = 64
	}
	f := &Finder{
		src:   src,
		head:  make([]int32, hashSize),
		prev:  make([]int32, len(src)),
		depth: depth,
	}
	for i := range f.head {
		f.head[i] = -1
	}
	return f
}

func (f *Finder) hash(i int) uint32 {
	s := f.src
	h := uint32(s[i]) | uint32(s[i+1])<<8 | uint32(s[i+2])<<16
	return (h * 2654435761) >> (32 - hashBits)
}

// Insert registers position i in the hash chains. Positions must be
// inserted in increasing order, and every position the encoder steps past
// (including those inside emitted matches) should be inserted.
func (f *Finder) Insert(i int) {
	if i+MinMatch > len(f.src) {
		return
	}
	h := f.hash(i)
	f.prev[i] = f.head[h]
	f.head[h] = int32(i)
}

// InsertRange registers positions [i, i+n) — typically the interior of an
// emitted match the encoder is stepping over — exactly as n calls to
// Insert.
func (f *Finder) InsertRange(i, n int) {
	if n <= 0 {
		return
	}
	last := len(f.src) - MinMatch
	if i+n-1 > last {
		n = last - i + 1
		if n <= 0 {
			return
		}
	}
	for j := 0; j < n; j++ {
		h := f.hash(i + j)
		f.prev[i+j] = f.head[h]
		f.head[h] = int32(i + j)
	}
}

// Find returns the longest match for position i (without inserting it), or
// a zero Match if none of at least MinMatch exists.
func (f *Finder) Find(i int) Match {
	if i+MinMatch > len(f.src) {
		return Match{}
	}
	limit := len(f.src) - i
	if limit > MaxMatch {
		limit = MaxMatch
	}
	var best Match
	cand := f.head[f.hash(i)]
	for steps := 0; cand >= 0 && steps < f.depth; steps++ {
		j := int(cand)
		dist := i - j
		if dist > MaxDistance {
			break
		}
		// Quick reject: match must beat best; check the byte past best.
		if best.Length == 0 || (best.Length < limit && f.src[j+best.Length] == f.src[i+best.Length]) {
			n := matchLen(f.src, j, i, limit)
			if n > best.Length {
				best = Match{Distance: dist, Length: n}
				if n == limit {
					break
				}
			}
		}
		cand = f.prev[j]
	}
	if best.Length < MinMatch {
		return Match{}
	}
	return best
}

// ExtendAt returns the length of the match at position i against distance
// dist (used for rep-distance probing), 0 if invalid.
func (f *Finder) ExtendAt(i, dist int) int {
	if dist <= 0 || dist > i {
		return 0
	}
	limit := len(f.src) - i
	if limit > MaxMatch {
		limit = MaxMatch
	}
	return matchLen(f.src, i-dist, i, limit)
}

// matchLen returns the length of the common prefix of s[a:] and s[b:],
// capped at limit. Callers guarantee a < b and b+limit <= len(s), so the
// word loop below never reads past the buffer: while n+8 <= limit, both
// s[a+n:a+n+8] and s[b+n:b+n+8] are in range.
//
// It compares 8 bytes per step and pinpoints the first mismatching byte
// with TrailingZeros64 — the words are read little-endian, so the lowest
// differing octet of x^y is the first differing byte. The result is
// identical to the byte-at-a-time loop (pinned by TestMatchLenDifferential).
func matchLen(s []byte, a, b, limit int) int {
	n := 0
	for n+8 <= limit {
		x := binary.LittleEndian.Uint64(s[a+n:])
		y := binary.LittleEndian.Uint64(s[b+n:])
		if x != y {
			return n + bits.TrailingZeros64(x^y)>>3
		}
		n += 8
	}
	for n < limit && s[a+n] == s[b+n] {
		n++
	}
	return n
}
