// Command tagalint runs the repository's invariant analyzers (detlint,
// hotalloc, lockcross, simerr, taskctx) over Go packages matched by
// patterns (the tier-1 gate):
//
//	go run ./cmd/tagalint ./...
//
// Exit status: 0 clean, 1 findings, 2 load/type errors. A pattern that
// matches no packages is a load error, never a silent clean run. -list
// prints the analyzer set.
//
// Findings can be silenced per line with a justified directive:
//
//	//lint:ignore lockcross reason the lock is module-private and uncontended
//
// Every directive must earn its keep: tagalint audits them each run and
// reports the ones that no longer silence anything, stale directives being
// misleading documentation. -stale-ignores selects the severity (warn,
// the default; error, as ci.sh runs it; or off).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/tagalint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	staleMode := flag.String("stale-ignores", "warn",
		"how to treat //lint:ignore directives that silence nothing: warn, error or off")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tagalint [-list] [-stale-ignores mode] [package pattern ...]\n       (default pattern ./...)\n\nAnalyzers:\n")
		for _, a := range tagalint.Suite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, firstLine(a.Doc))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range tagalint.Suite() {
			fmt.Printf("%-10s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	switch *staleMode {
	case "warn", "error", "off":
	default:
		fmt.Fprintf(os.Stderr, "tagalint: -stale-ignores must be warn, error or off, got %q\n", *staleMode)
		os.Exit(2)
	}

	os.Exit(standalone(flag.Args(), *staleMode))
}

func standalone(patterns []string, staleMode string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "tagalint: %s: %v\n", pkg.Path, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}
	findings, sups, err := analysis.RunWithSuppressions(loader.Fset, pkgs, tagalint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Printf("%s\n", f)
	}

	stale := analysis.Stale(sups)
	if staleMode != "off" {
		for _, s := range stale {
			fmt.Fprintf(os.Stderr, "tagalint: stale suppression (silences nothing, remove it): %s\n", s)
		}
	}

	switch {
	case len(findings) > 0:
		fmt.Fprintf(os.Stderr, "tagalint: %d finding(s)\n", len(findings))
		return 1
	case staleMode == "error" && len(stale) > 0:
		fmt.Fprintf(os.Stderr, "tagalint: %d stale suppression(s)\n", len(stale))
		return 1
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
