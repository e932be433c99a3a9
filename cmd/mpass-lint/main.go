// Command mpass-lint runs the repo's invariant analyzers (internal/analysis)
// over a package pattern and exits non-zero when any finding survives
// suppression:
//
//	mpass-lint ./...                # plain findings, one per line
//	mpass-lint -json ./...          # machine-readable report (schema v2)
//	mpass-lint -run nakedgo,atomics # restrict the analyzer set
//	mpass-lint -timing ./...        # per-analyzer wall time on stderr
//	mpass-lint -list                # describe the analyzers
//
// The -json report is a SARIF-style envelope: schema_version, the analyzer
// set with docs, per-analyzer wall time, and findings (file, line, col,
// analyzer, message).
//
// Findings are suppressed case by case with
// `//lint:ignore <analyzer> <reason>` on the flagged line or the line
// above; the reason is mandatory, a stale directive is itself a finding.
// `make lint` wires this into `make ci`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpass/internal/analysis"
)

// report is the -json schema (version 2). Version 1 was a bare Diagnostic
// array; v2 wraps it with the run metadata CI dashboards need.
type report struct {
	SchemaVersion int                   `json:"schema_version"`
	Analyzers     []reportAnalyzer      `json:"analyzers"`
	Findings      []analysis.Diagnostic `json:"findings"`
}

type reportAnalyzer struct {
	Name       string  `json:"name"`
	Doc        string  `json:"doc"`
	DurationMS float64 `json:"duration_ms"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a schema-v2 JSON report")
	run := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-13s %s\n", "lint", "(pseudo) malformed //lint:ignore directives")
		fmt.Printf("%-13s %s\n", "suppressions", "(pseudo) //lint:ignore directives that no longer fire")
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		var err error
		if analyzers, err = analysis.ByName(*run); err != nil {
			fatal(err)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fatal(err)
	}

	diags, timings := analysis.RunTimed(pkgs, analyzers)
	relativize(diags, *dir)
	if *timing {
		var total time.Duration
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "%-13s %8.2fms\n", t.Analyzer, float64(t.Duration.Microseconds())/1000)
			total += t.Duration
		}
		fmt.Fprintf(os.Stderr, "%-13s %8.2fms\n", "total", float64(total.Microseconds())/1000)
	}
	if *jsonOut {
		rep := report{SchemaVersion: 2, Findings: diags}
		if rep.Findings == nil {
			rep.Findings = []analysis.Diagnostic{}
		}
		docs := map[string]string{}
		for _, a := range analysis.All() {
			docs[a.Name] = a.Doc
		}
		for _, t := range timings {
			rep.Analyzers = append(rep.Analyzers, reportAnalyzer{
				Name:       t.Analyzer,
				Doc:        docs[t.Analyzer],
				DurationMS: float64(t.Duration.Microseconds()) / 1000,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relativize rewrites absolute file paths relative to the working
// directory so output is stable across checkouts.
func relativize(diags []analysis.Diagnostic, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	rel := func(p string) string {
		if r, err := filepath.Rel(abs, p); err == nil && !filepath.IsAbs(r) {
			return r
		}
		return p
	}
	for i := range diags {
		diags[i].File = rel(diags[i].File)
		diags[i].Pos.Filename = diags[i].File
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpass-lint:", err)
	os.Exit(2)
}
