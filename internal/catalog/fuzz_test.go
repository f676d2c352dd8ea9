package catalog

import "testing"

// FuzzParse feeds malformed catalog payloads to Parse: truncated, bit
// flipped or arbitrary input must error or yield a catalog whose counts
// the emblem header can address, never panic. Salvage sizes its frame
// space, ledger and missing-sheet scan from an accepted catalog, so these
// bounds are what keep a forged catalog from costing gigabytes.
func FuzzParse(f *testing.F) {
	c := sampleCatalog()
	c.IndexSlot = true
	c.IndexReplica = []byte("stand-in index replica")
	full, err := c.Marshal(0)
	if err != nil {
		f.Fatal(err)
	}
	// Every trim level Marshal can emit, from the full record down to the
	// identity core.
	for budget := len(full); ; {
		b, err := c.Marshal(budget)
		if err != nil {
			break
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		budget = len(b) - 1
	}
	f.Add([]byte{})
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Parse(b)
		if err != nil {
			if got != nil {
				t.Fatalf("error %v with non-nil catalog", err)
			}
			return
		}
		reserved := 1
		if got.IndexSlot {
			reserved++
		}
		if got.SheetCount > maxCount || got.Sheet < 0 || got.Sheet >= got.SheetCount ||
			got.TotalGroups < 0 || got.TotalGroups > maxCount ||
			got.TotalFrames < 0 || got.TotalFrames > maxCount+got.SheetCount*reserved {
			t.Fatalf("accepted implausible counts: sheet %d of %d, %d groups, %d frames",
				got.Sheet, got.SheetCount, got.TotalGroups, got.TotalFrames)
		}
		for _, s := range got.Sheets {
			if s.StartFrame < 0 || s.Frames < 0 || s.StartFrame+s.Frames > got.TotalFrames {
				t.Fatalf("accepted inventory %+v beyond %d frames", s, got.TotalFrames)
			}
		}
	})
}
