// Command simvet runs the simulator's determinism, simulation-purity and dead-code
// analyzers (internal/analysis) over a set of packages, in the style of a
// go/analysis multichecker:
//
//	simvet [-json] [packages]
//
// With no package patterns it checks ./... . Exit status is 0 when the
// tree is clean, 1 when any analyzer reported findings, and 2 when the
// packages could not be loaded. -json emits findings as a JSON array for
// machine consumption (dashboards, CI annotations):
//
//	[{"analyzer":"maporder","file":"internal/x/y.go","line":12,"col":2,"message":"..."}]
//
// A finding is suppressed by a `//simvet:allow <reason>` comment on the
// same line or the line above; the reason is mandatory. See the
// "Determinism invariants and simvet" section of DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"compmig/internal/analysis"
)

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simvet [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Suite {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analysis.Suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "simvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s\n", d)
		}
		if len(diags) == 0 {
			fmt.Printf("simvet: %d package(s) clean\n", len(pkgs))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
