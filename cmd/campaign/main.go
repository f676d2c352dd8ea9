// Command campaign runs the statistical damage-torture harness: randomized
// recovery trials swept along damage axes across media profiles, emitting
// recovery-probability curves as JSON — and, in diff mode, gating a fresh
// run against the committed CAMPAIGN.json baseline.
//
// Regenerate the committed baseline (bit-for-bit reproducible):
//
//	campaign -out CAMPAIGN.json
//
// CI regression smoke (small trial count inside a tolerance band):
//
//	campaign -trials 2 -diff CAMPAIGN.json -tol 0.15
//
// Flags select the sweep axes (-axes severity,loss), profiles
// (-profiles paper-small,dnasim), trial count, seed, corpus size and
// worker fan-out; the same seed and sweep always produce the same JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"microlonys/internal/campaign"
)

func main() {
	profiles := flag.String("profiles", "", "comma-separated profiles to sweep (default "+
		strings.Join(campaign.DefaultProfiles(), ",")+"; available "+strings.Join(campaign.ProfileNames(), ",")+")")
	axes := flag.String("axes", "", "comma-separated damage axes (default "+strings.Join(campaign.DefaultAxes(), ",")+")")
	trials := flag.Int("trials", 0, "randomized trials per axis point (default 8)")
	seed := flag.Int64("seed", 0, "campaign seed; every trial derives from it (default 1)")
	corpus := flag.Int("corpus", 0, "corpus bytes to archive per profile (default 16384)")
	workers := flag.Int("workers", 0, "trial-level parallelism (0 = GOMAXPROCS); results identical at any setting")
	out := flag.String("out", "", "write the campaign JSON to this file (- or empty for stdout)")
	diff := flag.String("diff", "", "compare against this baseline JSON instead of printing; non-zero exit on regression")
	tol := flag.Float64("tol", 0.15, "diff mode: flat tolerance on recovered fraction (binomial slack added per point)")
	flag.Parse()

	cfg := campaign.Config{
		Profiles:    splitList(*profiles),
		Axes:        splitList(*axes),
		Trials:      *trials,
		Seed:        *seed,
		CorpusBytes: *corpus,
		Workers:     *workers,
	}

	t0 := time.Now()
	res, err := campaign.Run(cfg)
	check(err)
	res.Command = command(cfg)
	fmt.Fprintf(os.Stderr, "campaign: %d curves in %v\n", len(res.Curves), time.Since(t0).Round(time.Millisecond))

	if *diff != "" {
		base, err := campaign.LoadBaseline(*diff)
		check(err)
		rep := campaign.Diff(base, res, *tol)
		fmt.Println(rep)
		if len(rep.Regressions) > 0 {
			os.Exit(1)
		}
		return
	}

	b, err := res.Marshal()
	check(err)
	if *out == "" || *out == "-" {
		os.Stdout.Write(b)
	} else {
		check(os.WriteFile(*out, b, 0o644))
		fmt.Fprintf(os.Stderr, "campaign: wrote %s (%d bytes)\n", *out, len(b))
	}
}

// command renders the canonical reproduction command for a config — the
// line recorded in the JSON so a future session can regenerate the
// baseline bit-for-bit.
func command(cfg campaign.Config) string {
	var b strings.Builder
	b.WriteString("go run ./cmd/campaign")
	if len(cfg.Profiles) > 0 {
		fmt.Fprintf(&b, " -profiles %s", strings.Join(cfg.Profiles, ","))
	}
	if len(cfg.Axes) > 0 {
		fmt.Fprintf(&b, " -axes %s", strings.Join(cfg.Axes, ","))
	}
	if cfg.Trials > 0 {
		fmt.Fprintf(&b, " -trials %d", cfg.Trials)
	}
	if cfg.Seed != 0 {
		fmt.Fprintf(&b, " -seed %d", cfg.Seed)
	}
	if cfg.CorpusBytes > 0 {
		fmt.Fprintf(&b, " -corpus %d", cfg.CorpusBytes)
	}
	b.WriteString(" -out CAMPAIGN.json")
	return b.String()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}
