package core

import (
	"reflect"
	"testing"

	"microlonys/media"
)

// TestQueryStatsPinned pins the complete RestoreStats — totals, the
// per-sheet ledger and the per-group ledger — of RestoreRange and
// RestoreTable at workers 1, 2 and 8 to recorded values, on the clean
// indexedArchive fixture, with three frames of the first payload group
// destroyed (recovered by the outer code), and in Partial mode after the
// first sheet is lost. Range offsets are literal: n/3 of the fixture's
// deterministic dump. Each fixture is damaged, then pre-scanned: the
// repeats read the pre-scanned copy, and one scanner-included query per
// case at workers 2 must match them byte for byte and stat for stat.
//
// A query scans the index probes plus the data frames its stream span
// overlaps; a group with a failed planned frame is read whole. The tiny
// profile's 361-byte chunks put the compressed spans at chunks 0–1 (0:300),
// 6–17 (6562:6562), 1–3 (region) and 10–24 (lineitem), and the raw spans
// at chunks 0–11, 18–36, 4–5 and 25–54; a group holds 17 data chunks.
func TestQueryStatsPinned(t *testing.T) {
	cases := []struct {
		fixture     string
		table       string // "" for a range query
		off, length int
		want        RestoreStats
	}{
		// 1 probe + 2 (group 0: 0–1).
		{fixture: "clean", off: 0, length: 300,
			want: RestoreStats{FramesScanned: 3, BytesCorrected: 1, FramesSkipped: 45, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 3, Groups: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 2}}}},
		// 1 probe + 12 (group 0: 6–16, group 1: 0).
		{fixture: "clean", off: 6562, length: 6562,
			want: RestoreStats{FramesScanned: 13, BytesCorrected: 11, FramesSkipped: 35, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 12, Groups: 1}, {Frames: 1, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 11}, {ID: 1, Sheet: 1, Kind: "data", Frames: 1}}}},
		// 1 probe + 3 (group 0: 1–3).
		{fixture: "clean", table: "region",
			want: RestoreStats{FramesScanned: 4, BytesCorrected: 1, FramesSkipped: 44, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 4, Groups: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 3}}}},
		// 1 probe + 15 (group 0: 10–16, group 1: 0–7).
		{fixture: "clean", table: "lineitem",
			want: RestoreStats{FramesScanned: 16, BytesCorrected: 14, FramesSkipped: 32, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 8, Groups: 1}, {Frames: 8, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 7}, {ID: 1, Sheet: 1, Kind: "data", Frames: 8}}}},
		{fixture: "damaged", off: 0, length: 300,
			want: RestoreStats{FramesScanned: 21, FramesFailed: 3, BytesCorrected: 19, GroupsRecovered: 1, FramesSkipped: 27, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 3, Groups: 1, GroupsRecovered: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20, Missing: 3, Recovered: true}}}},
		// 1 probe + 12 (group 0: 6–16, group 1: 0); the destroyed 0–2 go unread.
		{fixture: "damaged", off: 6562, length: 6562,
			want: RestoreStats{FramesScanned: 13, BytesCorrected: 11, FramesSkipped: 35, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 12, Groups: 1}, {Frames: 1, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 11}, {ID: 1, Sheet: 1, Kind: "data", Frames: 1}}}},
		{fixture: "damaged", table: "region",
			want: RestoreStats{FramesScanned: 21, FramesFailed: 3, BytesCorrected: 19, GroupsRecovered: 1, FramesSkipped: 27, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 3, Groups: 1, GroupsRecovered: 1}, {}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 20, Missing: 3, Recovered: true}}}},
		// 1 probe + 15 (group 0: 10–16, group 1: 0–7); the destroyed 0–2 go unread.
		{fixture: "damaged", table: "lineitem",
			want: RestoreStats{FramesScanned: 16, BytesCorrected: 14, FramesSkipped: 32, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 8, Groups: 1}, {Frames: 8, Groups: 1}, {}}, Groups: []GroupReport{{Kind: "data", Frames: 7}, {ID: 1, Sheet: 1, Kind: "data", Frames: 8}}}},
		{fixture: "sheet-loss", off: 0, length: 4000,
			want: RestoreStats{FramesScanned: 22, FramesFailed: 21, GroupsLost: 1, BytesLost: 6137, FramesSkipped: 53, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 21, Groups: 1, GroupsLost: 1}, {Frames: 1}, {}, {}}, Groups: []GroupReport{{Kind: "raw", Frames: 20, Missing: 20, Lost: true}}}},
		// 2 probes + 19 (group 1: 1–16, group 2: 0–2).
		{fixture: "sheet-loss", off: 6562, length: 6562,
			want: RestoreStats{FramesScanned: 21, FramesFailed: 1, BytesCorrected: 18, FramesSkipped: 54, GroupsDecoded: 2, IndexFrames: 1, Sheets: []SheetReport{{Frames: 1, FramesFailed: 1}, {Frames: 17, Groups: 1}, {Frames: 3, Groups: 1}, {}}, Groups: []GroupReport{{ID: 1, Sheet: 1, Kind: "raw", Frames: 16}, {ID: 2, Sheet: 2, Kind: "raw", Frames: 3}}}},
		{fixture: "sheet-loss", table: "region",
			want: RestoreStats{FramesScanned: 22, FramesFailed: 21, GroupsLost: 1, BytesLost: 6137, FramesSkipped: 53, GroupsDecoded: 1, IndexFrames: 1, Sheets: []SheetReport{{Frames: 21, FramesFailed: 21, Groups: 1, GroupsLost: 1}, {Frames: 1}, {}, {}}, Groups: []GroupReport{{Kind: "raw", Frames: 20, Missing: 20, Lost: true}}}},
		// 2 probes + 30 (group 1: 8–16, group 2: 0–16, group 3: 0–3).
		{fixture: "sheet-loss", table: "lineitem",
			want: RestoreStats{FramesScanned: 32, FramesFailed: 1, BytesCorrected: 29, FramesSkipped: 43, GroupsDecoded: 3, IndexFrames: 1, Sheets: []SheetReport{{Frames: 1, FramesFailed: 1}, {Frames: 10, Groups: 1}, {Frames: 17, Groups: 1}, {Frames: 4, Groups: 1}}, Groups: []GroupReport{{ID: 1, Sheet: 1, Kind: "raw", Frames: 9}, {ID: 2, Sheet: 2, Kind: "raw", Frames: 17}, {ID: 3, Sheet: 3, Kind: "raw", Frames: 4}}}},
	}

	type fixture struct {
		arch *Archived
		pre  *media.Volume
	}
	fixtures := map[string]fixture{}
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
		fixtures[fx] = fixture{arch, prescan(t, arch.Volume)}
	}

	for _, tc := range cases {
		fx := fixtures[tc.fixture]
		ro := RestoreOptions{Mode: RestoreNative, Partial: tc.fixture == "sheet-loss"}
		_, st, err := runPrescanned(t, fx.arch, fx.pre, spanQuery{tc.table, tc.off, tc.length}, ro)
		if err != nil {
			t.Fatalf("%s table=%q range=%d:%d: %v", tc.fixture, tc.table, tc.off, tc.length, err)
		}
		if !reflect.DeepEqual(*st, tc.want) {
			t.Fatalf("%s table=%q range=%d:%d:\n got %+v\nwant %+v",
				tc.fixture, tc.table, tc.off, tc.length, *st, tc.want)
		}
	}
}
