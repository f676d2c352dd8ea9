package nested

import (
	"bytes"
	"errors"
	"testing"

	"microlonys/dynarisc"
	"microlonys/verisc"
)

// TestRunnerReuseMatchesFresh runs three different guests back to back
// on one Runner — including one that aborts on the host step limit — and
// requires each result to match a fresh package-level Run.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	echo, err := dynarisc.Assemble(ioPrelude + `
	loop:
		LDM  R1, [D1]
		LDI  R2, 0
		CMP  R1, R2
		JZ   done
		LDM  R1, [D0]
		STM  R1, [D2]
		JUMP loop
	done:
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := dynarisc.Assemble(ioPrelude + `
		LDI  R0, 0
	loop:
		LDM  R1, [D1]
		LDI  R2, 0
		CMP  R1, R2
		JZ   done
		LDM  R1, [D0]
		ADD  R0, R1
		JUMP loop
	done:
		STM  R0, [D2]
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}

	emu, err := Program()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	runs := []struct {
		prog  *dynarisc.Program
		input []uint16
	}{
		{echo, []uint16{5, 0, 0xFFFF, 1234}},
		{sum, []uint16{1, 2, 3, 4, 5}},
		{echo, []uint16{42}},
	}
	for i, tc := range runs {
		want, err := Run(tc.prog, tc.input, 1<<18, 0)
		if err != nil {
			t.Fatalf("run %d: fresh: %v", i, err)
		}
		got, err := r.Run(emu, tc.prog, tc.input, 1<<18, 0)
		if err != nil {
			t.Fatalf("run %d: reused: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: reused output %v, fresh %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("run %d: output[%d] reused %#x fresh %#x", i, j, got[j], want[j])
			}
		}

		// Abort the Runner mid-guest; the next iteration must still
		// match a fresh machine.
		if _, err := r.Run(emu, tc.prog, tc.input, 1<<18, 50); !errors.Is(err, verisc.ErrStepLimit) {
			t.Fatalf("run %d: step-limited rerun: got %v, want step limit", i, err)
		}
	}
}

// TestRunnerAppendBytes covers the buffer-reusing entry points against
// the word-based reference.
func TestRunnerAppendBytes(t *testing.T) {
	echo, err := dynarisc.Assemble(ioPrelude + `
	loop:
		LDM  R1, [D1]
		LDI  R2, 0
		CMP  R1, R2
		JZ   done
		LDM  R1, [D0]
		STM  R1, [D2]
		JUMP loop
	done:
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("nested append round trip")

	want, err := Run(echo, dynarisc.AppendInWords(nil, payload), 1<<18, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make([]byte, len(want))
	for i, w := range want {
		wantBytes[i] = byte(w)
	}

	emu, err := Program()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	got, err := r.RunBytesAppendBytes([]byte("pfx:"), emu, echo, payload, 1<<18, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "pfx:"+string(wantBytes) {
		t.Fatalf("RunBytesAppendBytes = %q, want %q", got, "pfx:"+string(wantBytes))
	}

	got2, err := r.RunAppendBytes(nil, emu, echo, dynarisc.AppendInWords(nil, payload), 1<<18, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, wantBytes) {
		t.Fatalf("RunAppendBytes = %q, want %q", got2, wantBytes)
	}
}
