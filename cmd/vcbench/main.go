// Command vcbench regenerates the evaluation of Pang et al. (SIGMOD 2005):
// every figure, the cost-parameter table, and the comparative claims, as
// indexed in DESIGN.md (experiments E1-E9). It is the front end of the
// paper tree (internal/paper/...), which serves no request; how fast the
// system serves verified queries is measured by `go run ./bench`.
//
// Usage:
//
//	vcbench -exp all            # run everything
//	vcbench -exp fig9           # one experiment
//	vcbench -exp fig10 -short   # reduced dataset sizes
//
// Experiments: fig9, fig10, table1, cuser, vosize, update, ablation,
// attacks, precision, delta, multiorder, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vcqr/internal/paper/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig9|fig10|table1|cuser|vosize|update|ablation|attacks|precision|delta|multiorder|all")
	short := flag.Bool("short", false, "reduced dataset sizes for a quick pass")
	flag.Parse()

	env, err := experiments.NewEnv(*short)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout

	run := func(name string) bool {
		return *exp == "all" || strings.EqualFold(*exp, name)
	}
	ran := false

	if run("table1") {
		ran = true
		experiments.PrintTable1(w, env.Table1())
	}
	if run("fig9") {
		ran = true
		rows, err := env.Fig9()
		if err != nil {
			fatal(err)
		}
		experiments.PrintFig9(w, rows)
	}
	if run("fig10") {
		ran = true
		rows, err := env.Fig10()
		if err != nil {
			fatal(err)
		}
		experiments.PrintFig10(w, rows)
	}
	if run("cuser") {
		ran = true
		rows, err := env.Cuser()
		if err != nil {
			fatal(err)
		}
		experiments.PrintCuser(w, rows)
	}
	if run("vosize") {
		ran = true
		rows, err := env.VOSize()
		if err != nil {
			fatal(err)
		}
		experiments.PrintVOSize(w, rows)
	}
	if run("update") {
		ran = true
		rows, err := env.Update()
		if err != nil {
			fatal(err)
		}
		experiments.PrintUpdate(w, rows)
	}
	if run("ablation") {
		ran = true
		rows, err := env.Ablation()
		if err != nil {
			fatal(err)
		}
		experiments.PrintAblation(w, rows)
	}
	if run("attacks") {
		ran = true
		rows, err := env.Attacks()
		if err != nil {
			fatal(err)
		}
		experiments.PrintAttacks(w, rows)
	}
	if run("precision") {
		ran = true
		r, err := env.Precision()
		if err != nil {
			fatal(err)
		}
		experiments.PrintPrecision(w, r)
	}
	if run("delta") {
		ran = true
		rows, err := env.DeltaSync()
		if err != nil {
			fatal(err)
		}
		experiments.PrintDeltaSync(w, rows)
	}
	if run("multiorder") {
		ran = true
		rows, err := env.MultiOrder()
		if err != nil {
			fatal(err)
		}
		experiments.PrintMultiOrder(w, rows)
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcbench:", err)
	os.Exit(1)
}
