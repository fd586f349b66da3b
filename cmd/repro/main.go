// Command repro regenerates every figure of the paper in one run and
// prints the tables, optionally writing them to a results directory —
// the one-stop reproduction driver.
//
//	repro                      # everything at small scale
//	repro -scale paper         # paper-sized workloads (slow)
//	repro -fig 22              # one figure
//	repro -out results/        # also write one .tsv per figure
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// figures lists every single -fig value in the order -fig all runs
// them; the -fig help is generated from it and from sysGroups.
var figures = []string{"2", "5", "ex6", "ex7", "8a", "8b", "9", "10", "11", "12",
	"13", "14", "15", "16", "17", "18", "19", "20", "21", "22", "ablation"}

// sysGroups are -fig values that run one system grid's three figures
// together (throughput, flush time, latency); -fig all covers them.
var sysGroups = map[string][]string{
	"sys-abs":  {"13", "16", "19"},
	"sys-log":  {"14", "17", "20"},
	"sys-real": {"15", "18", "21"},
}

func figHelp() string {
	names := slices.Clone(figures)
	for g := range sysGroups {
		names = append(names, g)
	}
	slices.Sort(names[len(figures):])
	return "figure: " + strings.Join(append(names, "all"), ", ")
}

func main() {
	fig := flag.String("fig", "all", figHelp())
	scale := flag.String("scale", "small", "workload scale: small, medium or paper")
	out := flag.String("out", "", "directory to also write per-figure .tsv files into")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.SmallScale()
	case "medium":
		sc = experiments.MediumScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	tables, err := run(*fig, sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		t.Print(os.Stdout)
		if *out != "" {
			if err := writeTable(*out, t); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func writeTable(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ReplaceAll(t.ID, "/", "_") + ".tsv"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	t.Print(f)
	return f.Close()
}

func run(fig string, sc experiments.Scale) ([]*experiments.Table, error) {
	one := func(t *experiments.Table) []*experiments.Table { return []*experiments.Table{t} }
	if group, ok := sysGroups[fig]; ok {
		return systemFigs(group, sc)
	}
	switch fig {
	case "2":
		return one(experiments.Fig2(sc)), nil
	case "5":
		return one(experiments.Fig5(sc)), nil
	case "ex6":
		return one(experiments.Example6(sc)), nil
	case "ex7":
		return one(experiments.Example7(sc)), nil
	case "8a":
		return one(experiments.Fig8a(sc)), nil
	case "8b":
		return one(experiments.Fig8b(sc)), nil
	case "9":
		return experiments.Fig9(sc), nil
	case "10":
		return experiments.Fig10(sc), nil
	case "11":
		return one(experiments.Fig11(sc)), nil
	case "12":
		return experiments.Fig12(sc), nil
	case "13", "14", "15", "16", "17", "18", "19", "20", "21":
		return systemFig(fig, sc)
	case "22":
		a := experiments.Fig22a(sc)
		b, err := experiments.Fig22b(sc)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{a, b}, nil
	case "ablation":
		return []*experiments.Table{
			experiments.AblationTheta(sc),
			experiments.AblationL0(sc),
			experiments.AblationIIREstimate(sc),
			experiments.AblationArrayLen(sc),
		}, nil
	case "all":
		var tables []*experiments.Table
		for _, f := range figures {
			ts, err := run(f, sc)
			if err != nil {
				return nil, err
			}
			tables = append(tables, ts...)
		}
		return tables, nil
	default:
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
}

func systemFigs(figs []string, sc experiments.Scale) ([]*experiments.Table, error) {
	var out []*experiments.Table
	for _, f := range figs {
		ts, err := systemFig(f, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// systemGroups caches one benchmark grid per dataset group so that
// -fig all does not run the same grid three times (throughput, flush
// and latency all come from the same runs, as in the paper).
var systemGroups = map[string]*experiments.SystemResultSet{}

func systemFig(fig string, sc experiments.Scale) ([]*experiments.Table, error) {
	var group string
	var specs []experiments.SystemSpec
	switch fig {
	case "13", "16", "19":
		group, specs = "absnormal", experiments.AbsNormalSpecs()
	case "14", "17", "20":
		group, specs = "lognormal", experiments.LogNormalSpecs()
	case "15", "18", "21":
		group, specs = "realworld", experiments.RealWorldSpecs()
	}
	set, ok := systemGroups[group]
	if !ok {
		fmt.Fprintf(os.Stderr, "repro: running system grid %s (this is the slow part)...\n", group)
		var err error
		set, err = experiments.RunSystemGroup(specs, sc)
		if err != nil {
			return nil, err
		}
		systemGroups[group] = set
	}
	switch fig {
	case "13", "14", "15":
		return set.ThroughputTables("fig" + fig), nil
	case "16", "17", "18":
		return set.FlushTables("fig" + fig), nil
	default:
		return set.LatencyTables("fig" + fig), nil
	}
}
