// Command bootstrapgen emits the Bootstrap document for a media profile —
// the seven-page-class plain-text artifact (§3.2) that is written to the
// medium beside the emblems and from which a future user reconstructs
// everything.
package main

import (
	"flag"
	"fmt"
	"os"

	"microlonys/internal/bootstrap"
	"microlonys/internal/dynprog"
	"microlonys/internal/nested"
	"microlonys/media"
)

func main() {
	profile := flag.String("profile", "paper", "media profile: "+media.ProfileNames)
	stats := flag.Bool("stats", false, "print page statistics instead of the document")
	flag.Parse()

	prof, err := media.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bootstrapgen: %v\n", err)
		os.Exit(2)
	}

	emu, err := nested.Program()
	check(err)
	mo, err := dynprog.MODecode()
	check(err)
	doc := bootstrap.New(prof.Name, prof.Layout, 17, 3, emu, mo)

	if *stats {
		s := doc.PageStats()
		fmt.Printf("pseudocode: %d lines (%d pages)\n", s.PseudocodeLines, s.PseudocodePages)
		fmt.Printf("letters:    %d chars (%d pages)\n", s.LetterChars, s.LetterPages)
		fmt.Printf("total:      %d chars (%d pages at 80x66)\n", s.TotalChars, s.TotalPages)
		return
	}
	fmt.Print(doc.Render())
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bootstrapgen: %v\n", err)
		os.Exit(1)
	}
}
