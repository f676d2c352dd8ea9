package dbcoder

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzText is a compressible seed in the workload's shape.
var fuzzText = bytes.Repeat([]byte("INSERT INTO lineitem VALUES (42, 155190, 'quick brown fox');\n"), 40)

// maxFuzzRawLen bounds the raw length a fuzzed blob may declare before we
// decode it. Outputs are inherently bounded by the header's raw length,
// not the input size (that is what makes any LZ format a zip-bomb
// amplifier), so without the cap a mutated header can legitimately demand
// gigabytes of output — slow, but not a bug. The properties under test
// (no panic, no unbounded loop, errors on malformed data) are fully
// exercised below the cap.
const maxFuzzRawLen = 1 << 22

// FuzzDecompress feeds malformed blobs to Decompress: it must return an
// error or a self-consistent output — never panic, hang, or hand back
// bytes that contradict the blob's own header.
func FuzzDecompress(f *testing.F) {
	valid := Compress(fuzzText)
	f.Add([]byte{})
	f.Add([]byte("DBC1"))
	f.Add([]byte("DBC0\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(valid)
	f.Add(valid[:HeaderSize])                      // header only, empty token stream
	f.Add(valid[:HeaderSize+3])                    // range coder header cut short
	f.Add(valid[:len(valid)/2])                    // truncated mid-stream
	f.Add(append([]byte{}, valid[HeaderSize:]...)) // stream without header

	// Header lies: huge declared length over a tiny valid stream.
	lie := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(lie[4:], 1<<20)
	f.Add(lie)

	// Body corruption at a few offsets.
	for _, off := range []int{HeaderSize, HeaderSize + 7, len(valid) - 2} {
		c := append([]byte{}, valid...)
		c[off] ^= 0xFF
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		if n, err := RawLen(blob); err == nil && n > maxFuzzRawLen {
			t.Skip("declared output beyond fuzz budget")
		}
		out, err := Decompress(blob)
		if err != nil {
			if out != nil {
				t.Fatalf("error %v with non-nil output", err)
			}
			return
		}
		// Accepted: the output must satisfy the blob's own length and CRC
		// record (Decompress checks this; Verify re-derives it).
		if err := Verify(blob, out); err != nil {
			t.Fatalf("accepted blob fails its own header verification: %v", err)
		}
	})
}

// FuzzCompressRoundTrip pins Compress→Decompress bit-exactness on
// arbitrary inputs across match-finder depths.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("a"), uint8(1))
	f.Add(fuzzText, uint8(64))
	f.Add(bytes.Repeat([]byte{0}, 5000), uint8(16))
	f.Add([]byte("abcabcabcabcabcabc"), uint8(255))

	f.Fuzz(func(t *testing.T, src []byte, depth uint8) {
		if len(src) > 1<<20 {
			src = src[:1<<20]
		}
		blob := CompressDepth(src, int(depth))
		got, err := Decompress(blob)
		if err != nil {
			t.Fatalf("depth %d: decompress of own archive: %v", depth, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("depth %d: round trip mismatch: %d bytes in, %d out", depth, len(src), len(got))
		}
	})
}
