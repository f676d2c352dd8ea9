package core

import (
	"reflect"
	"testing"
)

// TestQueryStatsPinned pins the complete RestoreStats — totals, the
// per-sheet ledger and the per-group ledger — of RestoreRange and
// RestoreTable at workers 1, 2 and 8 to recorded values, on the clean
// indexedArchive fixture, with three frames of the first payload group
// destroyed (recovered by the outer code), and in Partial mode after the
// first sheet is lost. Range offsets are literal: n/3 of the fixture's
// deterministic dump.
func TestQueryStatsPinned(t *testing.T) {
	cases := []struct {
		fixture     string
		table       string // "" for a range query
		off, length int
		want        RestoreStats
	}{
		{fixture: "clean", off: 0, length: 300,
			want: RestoreStats{FramesScanned: 21, BytesCorrected: 21, FramesSkipped: 27, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, Groups: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20}}}},
		{fixture: "clean", off: 6562, length: 6562,
			want: RestoreStats{FramesScanned: 32, BytesCorrected: 32, FramesSkipped: 16, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, Groups: 1}, {Frames: 11, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20}, {ID: 1, Sheet: 1, Kind: "data", Frames: 11}}}},
		{fixture: "clean", table: "region",
			want: RestoreStats{FramesScanned: 21, BytesCorrected: 21, FramesSkipped: 27, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, Groups: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20}}}},
		{fixture: "clean", table: "lineitem",
			want: RestoreStats{FramesScanned: 32, BytesCorrected: 32, FramesSkipped: 16, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, Groups: 1}, {Frames: 11, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20}, {ID: 1, Sheet: 1, Kind: "data", Frames: 11}}}},
		{fixture: "damaged", off: 0, length: 300,
			want: RestoreStats{FramesScanned: 21, FramesFailed: 3, BytesCorrected: 19, GroupsRecovered: 1, FramesSkipped: 27, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 3, Groups: 1, GroupsRecovered: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20, Missing: 3, Recovered: true}}}},
		{fixture: "damaged", off: 6562, length: 6562,
			want: RestoreStats{FramesScanned: 32, FramesFailed: 3, BytesCorrected: 30, GroupsRecovered: 1, FramesSkipped: 16, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 3, Groups: 1, GroupsRecovered: 1}, {Frames: 11, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20, Missing: 3, Recovered: true}, {ID: 1, Sheet: 1, Kind: "data", Frames: 11}}}},
		{fixture: "damaged", table: "region",
			want: RestoreStats{FramesScanned: 21, FramesFailed: 3, BytesCorrected: 19, GroupsRecovered: 1, FramesSkipped: 27, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 3, Groups: 1, GroupsRecovered: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20, Missing: 3, Recovered: true}}}},
		{fixture: "damaged", table: "lineitem",
			want: RestoreStats{FramesScanned: 32, FramesFailed: 3, BytesCorrected: 30, GroupsRecovered: 1, FramesSkipped: 16, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 3, Groups: 1, GroupsRecovered: 1}, {Frames: 11, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20, Missing: 3, Recovered: true}, {ID: 1, Sheet: 1, Kind: "data", Frames: 11}}}},
		{fixture: "sheet-loss", off: 0, length: 4000,
			want: RestoreStats{FramesScanned: 22, FramesFailed: 21, GroupsLost: 1, BytesLost: 6137, FramesSkipped: 53, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 21, Groups: 1, GroupsLost: 1}, {Frames: 1}, {}, {}}, Groups: []GroupReport{{Kind: "raw", Frames: 20, Missing: 20, Lost: true}}}},
		{fixture: "sheet-loss", off: 6562, length: 6562,
			want: RestoreStats{FramesScanned: 42, FramesFailed: 1, BytesCorrected: 43, FramesSkipped: 33, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 1, FramesFailed: 1}, {Frames: 21, Groups: 1}, {Frames: 20, Groups: 1}, {}}, Groups: []GroupReport{{ID: 1, Sheet: 1, Kind: "raw", Frames: 20}, {ID: 2, Sheet: 2, Kind: "raw", Frames: 20}}}},
		{fixture: "sheet-loss", table: "region",
			want: RestoreStats{FramesScanned: 22, FramesFailed: 21, GroupsLost: 1, BytesLost: 6137, FramesSkipped: 53, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 21, Groups: 1, GroupsLost: 1}, {Frames: 1}, {}, {}}, Groups: []GroupReport{{Kind: "raw", Frames: 20, Missing: 20, Lost: true}}}},
		{fixture: "sheet-loss", table: "lineitem",
			want: RestoreStats{FramesScanned: 49, FramesFailed: 1, BytesCorrected: 50, FramesSkipped: 26, GroupsDecoded: 3, IndexFrames: 1, Sheets: []SheetReport{{Frames: 1, FramesFailed: 1}, {Frames: 21, Groups: 1}, {Frames: 20, Groups: 1}, {Frames: 7, Groups: 1}}, Groups: []GroupReport{{ID: 1, Sheet: 1, Kind: "raw", Frames: 20}, {ID: 2, Sheet: 2, Kind: "raw", Frames: 20}, {ID: 3, Sheet: 3, Kind: "raw", Frames: 7}}}},
	}

	fixtures := map[string]*Archived{}
	for _, fx := range []string{"clean", "damaged", "sheet-loss"} {
		arch, _ := indexedArchive(t, fx != "sheet-loss") // raw for sheet loss: Partial holes stay local
		switch fx {
		case "damaged":
			for local := 2; local <= 4; local++ { // after the catalog and index slots
				if err := arch.Volume.Destroy(0, local); err != nil {
					t.Fatal(err)
				}
			}
		case "sheet-loss":
			if err := arch.Volume.DestroySheet(0); err != nil {
				t.Fatal(err)
			}
		}
		fixtures[fx] = arch
	}

	for _, tc := range cases {
		arch := fixtures[tc.fixture]
		for _, workers := range []int{1, 2, 8} {
			ro := RestoreOptions{Mode: RestoreNative, Workers: workers, Partial: tc.fixture == "sheet-loss"}
			var st *RestoreStats
			var err error
			if tc.table == "" {
				_, st, err = RestoreRange(arch.Volume, arch.BootstrapText, tc.off, tc.length, ro)
			} else {
				_, st, err = RestoreTable(arch.Volume, arch.BootstrapText, tc.table, ro)
			}
			if err != nil {
				t.Fatalf("%s table=%q range=%d:%d workers=%d: %v", tc.fixture, tc.table, tc.off, tc.length, workers, err)
			}
			if !reflect.DeepEqual(*st, tc.want) {
				t.Fatalf("%s table=%q range=%d:%d workers=%d:\n got %+v\nwant %+v",
					tc.fixture, tc.table, tc.off, tc.length, workers, *st, tc.want)
			}
		}
	}
}
