package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"microlonys/internal/mocoder"
	"microlonys/media"
)

// partialArchive builds a raw (uncompressed) multi-sheet archive whose
// Partial-mode zero-fill accounting is meaningful: a hole in a raw stream
// is a measurable gap, not a decompression failure.
func partialArchive(t *testing.T, n int) (*Archived, []byte) {
	t.Helper()
	data := testPayload(n)
	opts := DefaultOptions(media.Tiny())
	opts.Compress = false
	opts.SheetFrames = 2 * (opts.GroupData + mocoder.GroupParity)
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return arch, data
}

// TestPartialStatsAccounting drives randomized sheet and group loss
// through Partial restores and checks the RestoreStats ledger: totals
// reconcile with the per-sheet and per-group reports, zero-filled output
// only ever diverges from the corpus inside counted holes, and the whole
// ledger is identical at worker counts 1, 2 and 8.
func TestPartialStatsAccounting(t *testing.T) {
	arch, data := partialArchive(t, 24000)
	nFrames := arch.Volume.FrameCount()
	nSheets := arch.Volume.Sheets()
	if nSheets < 2 {
		t.Fatalf("archive spans %d sheet(s), test needs at least 2", nSheets)
	}

	cases := []struct {
		name    string
		damage  func(t *testing.T, v *media.Volume)
		minLost int  // minimum GroupsLost the damage guarantees
		lossy   bool // damage guarantees some counted loss (groups or frame runs)
		full    bool // damage stays within parity: output must be exact
	}{
		{
			name:   "clean",
			damage: func(t *testing.T, v *media.Volume) {},
			full:   true,
		},
		{
			name: "within-parity",
			damage: func(t *testing.T, v *media.Volume) {
				// One frame per sheet: comfortably inside every group's parity.
				for s := 0; s < v.Sheets(); s++ {
					if err := v.Destroy(s, 0); err != nil {
						t.Fatal(err)
					}
				}
			},
			full: true,
		},
		{
			name: "group-lost",
			damage: func(t *testing.T, v *media.Volume) {
				// A contiguous run longer than parity, confined to one
				// group (frames 0..19 of sheet 0 are the first group).
				for j := 0; j < mocoder.GroupParity+2; j++ {
					if err := v.Destroy(0, j); err != nil {
						t.Fatal(err)
					}
				}
			},
			minLost: 1,
			lossy:   true,
		},
		{
			name: "random-scatter",
			damage: func(t *testing.T, v *media.Volume) {
				rng := rand.New(rand.NewSource(99))
				for _, i := range rng.Perm(nFrames)[:nFrames/4] {
					s, j, err := v.Locate(i)
					if err != nil {
						t.Fatal(err)
					}
					if err := v.Destroy(s, j); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "sheet-destroyed",
			damage: func(t *testing.T, v *media.Volume) {
				if err := v.DestroySheet(v.Sheets() - 1); err != nil {
					t.Fatal(err)
				}
			},
			lossy: true, // a headerless sheet is an unidentifiable run, not a named group
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vol := arch.Volume.Clone()
			tc.damage(t, vol)

			var ref *RestoreStats
			var refOut []byte
			for _, workers := range []int{1, 2, 8} {
				var out bytes.Buffer
				st, err := RestoreToWriter(&out, vol, arch.BootstrapText,
					RestoreOptions{Mode: RestoreNative, Partial: true, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}

				if ref == nil {
					ref, refOut = st, append([]byte(nil), out.Bytes()...)
					checkLedger(t, st, refOut, data, tc.minLost, tc.lossy, tc.full)
					continue
				}
				if !reflect.DeepEqual(st, ref) {
					t.Fatalf("workers=%d: stats differ from workers=1\n got %+v\nwant %+v", workers, st, ref)
				}
				if !bytes.Equal(out.Bytes(), refOut) {
					t.Fatalf("workers=%d: output differs from workers=1", workers)
				}
			}
		})
	}
}

// checkLedger asserts the Partial accounting invariants on one restore.
func checkLedger(t *testing.T, st *RestoreStats, got, want []byte, minLost int, lossy, full bool) {
	t.Helper()

	if len(got) != len(want) {
		t.Fatalf("output %d bytes, corpus %d: Partial mode must preserve length", len(got), len(want))
	}

	// Totals reconcile with the per-sheet ledger.
	var framesFailed, groupsLost int
	for _, sh := range st.Sheets {
		framesFailed += sh.FramesFailed
		groupsLost += sh.GroupsLost
	}
	if framesFailed != st.FramesFailed {
		t.Fatalf("sheet FramesFailed sum %d != total %d", framesFailed, st.FramesFailed)
	}
	if groupsLost != st.GroupsLost {
		t.Fatalf("sheet GroupsLost sum %d != total %d", groupsLost, st.GroupsLost)
	}

	// ... and with the per-group ledger.
	lostGroups := 0
	for _, g := range st.Groups {
		if g.Lost {
			lostGroups++
		}
	}
	if lostGroups != st.GroupsLost {
		t.Fatalf("group reports mark %d lost, total says %d", lostGroups, st.GroupsLost)
	}

	// Output only diverges inside counted, zero-filled holes.
	diverged := 0
	for i := range got {
		if got[i] != want[i] {
			if got[i] != 0 {
				t.Fatalf("output byte %d is %#x, corpus %#x: divergence outside a zero-filled hole", i, got[i], want[i])
			}
			diverged++
		}
	}
	if diverged > st.BytesLost {
		t.Fatalf("%d bytes diverged but only %d counted as lost", diverged, st.BytesLost)
	}

	if st.GroupsLost < minLost {
		t.Fatalf("GroupsLost = %d, damage guarantees at least %d", st.GroupsLost, minLost)
	}
	if lossy && st.GroupsLost+st.FramesLost == 0 {
		t.Fatalf("damage guarantees counted loss, stats show none: %+v", st)
	}
	if lossy && st.BytesLost == 0 {
		t.Fatalf("counted loss with no bytes lost: %+v", st)
	}
	if full {
		if diverged != 0 || st.GroupsLost != 0 || st.BytesLost != 0 || st.FramesLost != 0 {
			t.Fatalf("within-parity damage should restore exactly: diverged=%d stats=%+v", diverged, st)
		}
	} else if st.GroupsLost > 0 && st.BytesLost == 0 {
		t.Fatal("lost groups but no bytes counted lost")
	}
}
