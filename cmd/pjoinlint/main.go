// Command pjoinlint is the repo's static-invariant multichecker: it
// runs the internal/lint analyzer suite (hotpath, opcontract,
// poolsafe, spanpair, locksafe) over the tree and fails if any
// diagnostic is not covered by a justified //pjoin:allow suppression.
// It complements go vet rather than repeating it: locksafe checks that
// no lock is taken under another, and copies of lock-bearing values
// are vet's copylocks check (`make vet`).
//
// Usage:
//
//	pjoinlint [-json] [-v] [-list] [packages...]
//
// With no package patterns it checks ./... from the current directory.
// -json writes the full diagnostic set (including suppressions and
// their reasons) to stdout for CI artifacts; -v prints suppressed
// findings alongside the gating ones; -list describes the analyzers.
//
// Exit status is 0 when the tree is clean, 1 when unsuppressed
// diagnostics exist, 2 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pjoin/internal/lint"
	"pjoin/internal/lint/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (includes suppressed findings)")
	verbose := flag.Bool("v", false, "also print suppressed findings with their reasons")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pjoinlint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(fset, pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pjoinlint:", err)
		os.Exit(2)
	}
	unsuppressed := analysis.Unsuppressed(diags)

	if *jsonOut {
		report := struct {
			Diagnostics  []analysis.Diagnostic `json:"diagnostics"`
			Unsuppressed int                   `json:"unsuppressed"`
		}{diags, len(unsuppressed)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "pjoinlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			switch {
			case !d.Suppressed:
				fmt.Printf("%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
			case *verbose:
				fmt.Printf("%s: %s: %s (suppressed: %s)\n", d.Pos, d.Analyzer, d.Message, d.Reason)
			}
		}
	}
	if len(unsuppressed) > 0 {
		fmt.Fprintf(os.Stderr, "pjoinlint: %d unsuppressed diagnostic(s)\n", len(unsuppressed))
		os.Exit(1)
	}
}
