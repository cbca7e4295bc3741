// Command tagalint runs the repository's invariant analyzers (detlint,
// doccomment, hotalloc, lockcross, simerr, taskctx) over Go packages. It
// works in two modes:
//
// Standalone, over package patterns (the tier-1 gate):
//
//	go run ./cmd/tagalint ./...
//
// As a vet tool, driven per-package by the go command:
//
//	go vet -vettool=$(go env GOPATH)/bin/tagalint ./...
//
// Exit status: 0 clean, 1 findings (standalone) or 2 findings (vet
// protocol, matching the unitchecker convention), 2 load/type errors.
// A pattern that matches no packages is a load error, never a silent
// clean run.
//
// Standalone flags: -list prints the analyzer set; -json writes the
// findings to a file (or "-" for stdout) as JSON for CI ingestion.
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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/tagalint"
)

const version = "v1.1.0"

func main() {
	// The go command probes vet tools with -V=full before use.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("tagalint version %s\n", version)
		return
	}
	// It also asks for the tool's flag definitions as JSON (-flags); every
	// tagalint analyzer is always on, so there are none to report.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}

	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.String("json", "", "write findings as JSON to `file` (\"-\" for stdout)")
	staleMode := flag.String("stale-ignores", "warn",
		"how to treat //lint:ignore directives that silence nothing: warn, error or off")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tagalint [-list] [-json file] [-stale-ignores mode] [package pattern ...]\n       (default pattern ./...)\n\nAnalyzers:\n")
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

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}
	os.Exit(standalone(args, *jsonOut, *staleMode))
}

func standalone(patterns []string, jsonOut, staleMode string) int {
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

	if jsonOut != "" {
		data, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tagalint:", err)
			return 2
		}
		if err := writeReport(jsonOut, append(data, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "tagalint:", err)
			return 2
		}
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

// writeReport writes a machine-readable report to path, "-" meaning stdout.
func writeReport(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// vetConfig is the subset of the go command's unit-checker configuration
// tagalint consumes (cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one package as described by a go-vet cfg file.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	// tagalint keeps no cross-package facts, but the go command caches
	// the vetx output if present, so write an empty one.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "tagalint:", err)
			return 2
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return 0
	}
	loader := analysis.NewLoader()
	pkg, err := loader.LoadFiles(cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "tagalint: %s: %v\n", cfg.ImportPath, terr)
		}
		return 2
	}
	findings, err := analysis.Run(loader.Fset, []*analysis.Package{pkg}, tagalint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tagalint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s\n", f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
