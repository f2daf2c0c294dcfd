// Command dcbench regenerates the paper-reproduction experiment tables
// (listed in docs/ARCHITECTURE.md): the Figure-1 pipeline and experiments
// E1–E7. Run all of them or a single one:
//
//	dcbench                 # everything at full scale
//	dcbench -exp e1         # one experiment
//	dcbench -scale 0.1      # quicker, smaller run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: f1, e1..e7, or all")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = full)")
	flag.Parse()

	s := experiments.Scale(*scale)
	runners := map[string]func(experiments.Scale) (*experiments.Table, error){
		"f1": experiments.F1,
		"e1": experiments.E1,
		"e2": experiments.E2,
		"e3": experiments.E3,
		"e4": experiments.E4,
		"e5": experiments.E5,
		"e6": experiments.E6,
		"e7": experiments.E7,
	}

	name := strings.ToLower(*exp)
	if name == "all" {
		tables, err := experiments.All(s)
		for _, t := range tables {
			fmt.Println(t)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	fn, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want f1, e1..e7, all)\n", *exp)
		os.Exit(2)
	}
	tbl, err := fn(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl)
}
