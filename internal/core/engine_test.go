package core

import (
	"bytes"
	"reflect"
	"testing"

	"microlonys/media"
)

// Pooled scan scratch must be invisible: back-to-back restores — clean,
// damaged, clean again — each borrow the scratch the previous call
// returned, and still reproduce the first restore of the same volume
// byte for byte and stat for stat.
func TestEngineMatchesOneShotAcrossTrials(t *testing.T) {
	data := testPayload(40000)
	opts := DefaultOptions(tinyProfile())
	opts.Compress = false
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	vol := arch.Volume

	damaged := vol.Clone()
	for _, i := range []int{1, 5, 9} {
		s, j, err := damaged.Locate(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := damaged.Destroy(s, j); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		out []byte
		st  *RestoreStats
		err error
	}
	first := map[*media.Volume]result{}
	ro := RestoreOptions{Mode: RestoreNative, Workers: 1, Partial: true}
	for trial, v := range []*media.Volume{vol, damaged, vol, damaged, vol} {
		gotBytes, gotStats, gotErr := RestoreVolume(v, arch.BootstrapText, ro)
		want, seen := first[v]
		if !seen {
			want = result{gotBytes, gotStats, gotErr}
			first[v] = want
		}
		if (want.err == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, want.err, gotErr)
		}
		if !bytes.Equal(gotBytes, want.out) {
			t.Fatalf("trial %d: bytes diverged from the first restore", trial)
		}
		if !reflect.DeepEqual(gotStats, want.st) {
			t.Fatalf("trial %d: stats diverged: %+v vs %+v", trial, gotStats, want.st)
		}
		if trial%2 == 0 && !bytes.Equal(gotBytes, data) {
			t.Fatalf("trial %d: clean volume did not restore bit-exact", trial)
		}
	}
}
