// Futureuser plays the role of the person in §3.3 / §4 restoring the
// archive decades from now: they receive ONLY the scanned frames and the
// Bootstrap text, and they implement the VeRisc machine from the
// document's pseudocode — nothing else from this repository.
//
// The ~80-line emulator below (`futureVM`) was written strictly against
// Section 1 of the Bootstrap document; it deliberately shares no code
// with package verisc. It then follows the document's steps: decode the
// letter sections, instantiate the DynaRisc emulator inside the VM, run
// MODecode on every frame, assemble the archive, and run DBDecode from
// the system frames. This is the paper's portability experiment (E4) in
// executable form.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"microlonys"
	"microlonys/internal/emblem"
	"microlonys/media"
	"microlonys/raster"
)

// futureVM implements Step 1 of the Bootstrap and nothing more.
type futureVM struct {
	M   []uint32
	R   uint32
	B   uint32
	PC  uint32
	In  []uint32
	ip  int
	Out []uint32
}

func newFutureVM(cells int) *futureVM { return &futureVM{M: make([]uint32, cells)} }

func (v *futureVM) read(a uint32) uint32 {
	switch a {
	case 0:
		return v.PC
	case 1:
		return v.B
	case 2:
		if v.ip < len(v.In) {
			x := v.In[v.ip]
			v.ip++
			return x
		}
		return 0
	case 3:
		if v.ip < len(v.In) {
			return 1
		}
		return 0
	}
	return v.M[a]
}

func (v *futureVM) run() error {
	for steps := 0; ; steps++ {
		op, addr := v.M[v.PC], v.M[v.PC+1]
		v.PC += 2
		switch op {
		case 0:
			v.R = v.read(addr)
		case 1:
			switch addr {
			case 0:
				v.PC = v.R
			case 1:
				v.B = v.R & 1
			case 4:
				v.Out = append(v.Out, v.R)
			case 5:
				return nil
			default:
				v.M[addr] = v.R
			}
		case 2:
			t := int64(v.R) - int64(v.read(addr)) - int64(v.B)
			if t < 0 {
				v.B = 1
			} else {
				v.B = 0
			}
			v.R = uint32(t)
		case 3:
			v.R &= v.read(addr)
		default:
			return fmt.Errorf("corrupt image: op %d", op)
		}
	}
}

// letters implements Step 2.
func letters(s string) []byte {
	var nib []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'P' {
			nib = append(nib, 0xF-(c-'A'))
		}
	}
	out := make([]byte, len(nib)/2)
	for i := range out {
		out[i] = nib[2*i]<<4 | nib[2*i+1]
	}
	return out
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func main() {
	// ---- What the future user receives --------------------------------
	// (produced today by the archivist; from here on, only the Bootstrap
	// text and the frame scans are used)
	dump := []byte(strings.Repeat("INSERT INTO nation VALUES ('FRANCE', 3);\n", 60))
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 4}
	prof := media.Profile{
		Name: "demo", FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(), Layout: l,
	}
	arch, err := microlonys.Archive(dump, microlonys.DefaultOptions(prof))
	if err != nil {
		log.Fatal(err)
	}
	scans, err := arch.Medium.Scan()
	if err != nil {
		log.Fatal(err)
	}
	bootText := arch.BootstrapText
	fmt.Printf("received: %d frame scans + %d bytes of Bootstrap text\n",
		len(scans), len(bootText))

	// ---- The future user's restoration, Bootstrap steps 2-6 -----------
	section := func(marker string) string {
		i := strings.Index(bootText, marker)
		rest := bootText[i+len(marker):]
		j := strings.Index(rest, "====")
		return rest[:j]
	}
	// Section 2: geometry.
	var dataW, dataH int
	for _, f := range strings.Fields(section("==== SECTION 2: EMBLEM GEOMETRY ====")) {
		fmt.Sscanf(f, "dataw=%d", &dataW)
		fmt.Sscanf(f, "datah=%d", &dataH)
	}
	// Section 3: the DynaRisc emulator (VeRisc cells).
	emu := letters(section("==== SECTION 3: DYNARISC EMULATOR (letters) ===="))
	org := be32(emu[4:])
	count := be32(emu[8:])
	cells := make([]uint32, count)
	for i := range cells {
		cells[i] = be32(emu[12+4*i:])
	}
	// Section 4: MODecode (DynaRisc words).
	mo := letters(section("==== SECTION 4: MODECODE (letters) ===="))
	moOrg := uint32(mo[4])<<8 | uint32(mo[5])
	moCount := be32(mo[6:])
	moWords := make([]uint32, moCount)
	for i := range moWords {
		moWords[i] = uint32(mo[10+2*i])<<8 | uint32(mo[10+2*i+1])
	}

	runGuest := func(guestInput []uint32) []uint32 {
		vm := newFutureVM(18_000_000)
		copy(vm.M[org:], cells)
		vm.PC = org
		vm.In = append([]uint32{moOrg, moCount}, append(moWords, guestInput...)...)
		if err := vm.run(); err != nil {
			log.Fatal(err)
		}
		return vm.Out
	}
	_ = runGuest

	// Step 4: decode every frame through the emulated MODecode.
	type frame struct {
		hdr     []byte
		payload []byte
	}
	var frames []frame
	for i, scan := range scans {
		in := []uint32{uint32(scan.W), uint32(scan.H), uint32(dataW), uint32(dataH)}
		for _, p := range scan.Pix {
			in = append(in, uint32(p))
		}
		out := runGuest(in)
		if len(out) < 22 {
			fmt.Printf("frame %d: damaged, set aside\n", i)
			continue
		}
		b := make([]byte, len(out))
		for j, w := range out {
			b[j] = byte(w)
		}
		frames = append(frames, frame{hdr: b[:22], payload: b[22:]})
	}
	fmt.Printf("decoded %d frames under the hand-written VM\n", len(frames))

	// Step 5: order data frames by index, keep system frames separate.
	var dataStream, sysStream []byte
	var dataTotal, sysTotal uint32
	for _, f := range frames {
		kind := f.hdr[2]
		total := be32(f.hdr[16:])
		switch kind {
		case 1: // data
			dataStream = append(dataStream, f.payload...)
			dataTotal = total
		case 2: // system
			sysStream = append(sysStream, f.payload...)
			sysTotal = total
		}
	}
	dataStream = dataStream[:dataTotal]
	sysStream = sysStream[:sysTotal]
	fmt.Printf("archive stream: %d bytes (DBC1), DBDecode program: %d bytes\n",
		len(dataStream), len(sysStream))

	// Step 6: run DBDecode (from the system frames) on the archive.
	dbOrg := uint32(sysStream[4])<<8 | uint32(sysStream[5])
	dbCount := be32(sysStream[6:])
	dbWords := make([]uint32, dbCount)
	for i := range dbWords {
		dbWords[i] = uint32(sysStream[10+2*i])<<8 | uint32(sysStream[10+2*i+1])
	}
	vm := newFutureVM(18_000_000)
	copy(vm.M[org:], cells)
	vm.PC = org
	vm.In = append([]uint32{dbOrg, dbCount}, dbWords...)
	for _, b := range dataStream {
		vm.In = append(vm.In, uint32(b))
	}
	if err := vm.run(); err != nil {
		log.Fatal(err)
	}
	restored := make([]byte, len(vm.Out))
	for i, w := range vm.Out {
		restored[i] = byte(w)
	}

	if bytes.Equal(restored, dump) {
		fmt.Println("FUTURE USER RESTORED THE DATABASE BIT-EXACT")
		fmt.Println("(VeRisc VM: ~80 lines, written only from the Bootstrap pseudocode)")
	} else {
		log.Fatalf("restoration differs: %d vs %d bytes", len(restored), len(dump))
	}

	salvageAct()
	_ = raster.Gray{}
}

// salvageAct is the second act: the same future user, a worse day. The
// sheets turn up loose in a box — out of order, one photocopied twice,
// a few frames water-damaged — and the printed Bootstrap text is GONE.
// With Options.Catalog each sheet reserved its slot-0 frame for a
// self-describing catalog emblem (archive identity, sheet inventory,
// per-group checksums, and — when the frame is large enough — a
// compressed replica of the whole Bootstrap document), so the bag alone
// is enough: Salvage identifies and orders the sheets, dedupes the
// copies, recovers the Bootstrap from the replica, and restores.
func salvageAct() {
	fmt.Println()
	fmt.Println("--- act two: the Bootstrap text is lost ---")

	// Archive day: a frame large enough to carry the Bootstrap replica
	// inside the catalog emblem (the act-one demo layout is too small —
	// its catalogs still carry identity, inventory and checksums, just
	// not the replica).
	dump := []byte(strings.Repeat("INSERT INTO region VALUES ('EUROPE', 3);\n", 2000))
	l := emblem.Layout{DataW: 480, DataH: 360, PxPerModule: 2}
	prof := media.Profile{
		Name: "demo-large", FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(), Layout: l,
	}
	opts := microlonys.DefaultOptions(prof)
	opts.Compress = false // keep the demo multi-sheet
	opts.GroupData = 4    // small groups -> small sheets
	opts.SheetFrames = 8  // 4+3 outer code + the catalog slot
	opts.Catalog = true
	arch, err := microlonys.Archive(dump, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Decades later: an unordered bag — shuffled, one sheet duplicated,
	// one frame of sheet 0 destroyed. No bootstrap text anywhere.
	var bag []*media.Medium
	for s := 0; s < arch.Volume.Sheets(); s++ {
		sheet, err := arch.Volume.Sheet(s)
		if err != nil {
			log.Fatal(err)
		}
		bag = append(bag, sheet)
	}
	if err := bag[0].Destroy(3); err != nil {
		log.Fatal(err)
	}
	bag = append(bag, bag[1].Clone())                 // a photocopied duplicate
	bag[0], bag[len(bag)-1] = bag[len(bag)-1], bag[0] // out of order
	bag[1], bag[2] = bag[2], bag[1]
	fmt.Printf("received: a bag of %d sheets, shuffled, no Bootstrap text\n", len(bag))

	got, rep, err := microlonys.Salvage(bag, microlonys.SalvageOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog frames identified %d of %d sheets (archive %016x), deduped %d copy\n",
		len(rep.SheetsIdentified), rep.SheetCount, rep.ArchiveID, rep.SheetsDuplicate)
	if !rep.BootstrapRecovered {
		log.Fatal("expected the Bootstrap replica to survive in the catalog")
	}
	fmt.Println("Bootstrap document recovered from one sheet's catalog replica")
	if !bytes.Equal(got, dump) {
		log.Fatalf("salvage differs: %d vs %d bytes", len(got), len(dump))
	}
	fmt.Println("SALVAGED BIT-EXACT FROM THE UNORDERED, BOOTSTRAP-FREE BAG")

	// Epilogue: an even worse find. One sheet was never recovered at all,
	// and on every OTHER surviving sheet the catalog frame itself is
	// ruined — a single sheet's catalog must identify the archive,
	// inventory what is missing, and resupply the Bootstrap, alone.
	var worse []*media.Medium
	for s := 0; s < arch.Volume.Sheets(); s++ {
		if s == 1 {
			continue // sheet 1 is gone
		}
		sheet, err := arch.Volume.Sheet(s)
		if err != nil {
			log.Fatal(err)
		}
		if s != 0 {
			if err := sheet.Destroy(0); err != nil { // ruin this catalog
				log.Fatal(err)
			}
		}
		worse = append(worse, sheet)
	}
	worse[0], worse[len(worse)-1] = worse[len(worse)-1], worse[0]
	got, rep, err = microlonys.Salvage(worse, microlonys.SalvageOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one catalog left: identified %d sheets, inventoried missing %v, %d bytes zero-filled\n",
		len(rep.SheetsIdentified), rep.SheetsMissing, rep.Stats.BytesLost)
	if len(rep.SheetsMissing) != 1 || rep.SheetsMissing[0] != 1 {
		log.Fatalf("expected the surviving catalog to inventory sheet 1 as missing, got %v",
			rep.SheetsMissing)
	}
	if !rep.BootstrapRecovered || rep.Stats.BytesLost == 0 {
		log.Fatal("expected a bootstrap replica and zero-filled losses")
	}
	fmt.Println("ONE SHEET'S CATALOG ALONE INVENTORIED THE LOSSES AND RESUPPLIED THE BOOTSTRAP")
}
