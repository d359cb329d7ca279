package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/benchtraj"
)

// benchFile matches a trajectory artifact name, for inferring -pr.
var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// runBench is the `petasim bench` subcommand: measure the curated suite
// in-process, optionally write the schema-versioned trajectory record,
// and optionally gate against a prior record, exiting nonzero (the
// returned error) on any regression past threshold.
//
//	petasim bench -json BENCH_6.json              # record a trajectory point
//	petasim bench -gate -against BENCH_5.json     # CI regression gate
//	petasim bench -gate                           # gate vs newest BENCH_*.json
//	petasim -benchtime 1x -bench 'Sim' bench      # quick, filtered
//	petasim -bench 'AllFigures' -cpuprofile cpu.pb.gz bench   # profile it
func runBench(ctx context.Context, cli cliConfig, out io.Writer) error {
	if cli.cpuProfile != "" {
		f, err := os.Create(cli.cpuProfile)
		if err != nil {
			return fmt.Errorf("bench: -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("bench: -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if cli.memProfile != "" {
		defer func() {
			f, err := os.Create(cli.memProfile)
			if err != nil {
				cliLog.Error("-memprofile: " + err.Error())
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				cliLog.Error("-memprofile: " + err.Error())
			}
		}()
	}
	rec, err := benchtraj.Run(ctx, benchtraj.RunOptions{
		PR:        benchPR(cli),
		Benchtime: cli.benchtime,
		Filter:    cli.benchFilter,
		Logf: func(format string, args ...any) {
			cliLog.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	if rec.Headline.ColdAllFiguresNs > 0 {
		fmt.Fprintf(out, "cold AllFigures: %.3fs\n", rec.Headline.ColdAllFiguresNs/1e9)
	}
	if cli.jsonDir != "" {
		if err := rec.WriteFile(cli.jsonDir); err != nil {
			return err
		}
		cliLog.Info("wrote trajectory record", "file", cli.jsonDir)
	}
	against := cli.against
	if against == "" && cli.gate {
		if against, err = benchtraj.Newest("."); err != nil {
			return err
		}
		if against == "" {
			return fmt.Errorf("bench: -gate needs a baseline, but no BENCH_*.json exists here (record one with -json first)")
		}
	}
	if against == "" {
		return nil
	}
	old, err := benchtraj.ReadFile(against)
	if err != nil {
		return err
	}
	deltas, err := benchtraj.Compare(old, rec, benchtraj.DefaultThresholds())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "vs %s:\n", against)
	fmt.Fprintf(out, "  baseline host: %s\n  this host:     %s\n", old.Host(), rec.Host())
	if old.Host() != rec.Host() {
		fmt.Fprintln(out, "  warning: the hosts differ, so ns/op deltas measure the host as well as the code")
	}
	benchtraj.RenderDeltas(out, deltas)
	if regs := benchtraj.Regressions(deltas); cli.gate && len(regs) > 0 {
		return fmt.Errorf("bench: %d benchmark(s) regressed past threshold against %s", len(regs), against)
	}
	return nil
}

// benchPR picks the record's PR label: the explicit -pr flag, else the
// number in a BENCH_<n>.json -json target, else 0.
func benchPR(cli cliConfig) int {
	if cli.pr != 0 {
		return cli.pr
	}
	if m := benchFile.FindStringSubmatch(filepath.Base(cli.jsonDir)); m != nil {
		if n, err := strconv.Atoi(m[1]); err == nil {
			return n
		}
	}
	return 0
}
