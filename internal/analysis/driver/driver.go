// Package driver runs a suite of analysis.Analyzers as a vet tool
// (`go vet -vettool=siglint ./...`): the go command invokes the binary once
// per package with a JSON .cfg file describing the sources and the export
// data of every dependency — the "unitchecker" wire protocol of x/tools,
// reimplemented here on the stdlib gc importer. Going through the go command
// gets its build cache (clean packages are not re-analyzed), its package
// graph (test variants included) and its -overlay flag for free.
//
// Diagnostics print as "file:line:col: message [siglint/<analyzer>]" on
// stderr and a non-zero exit reports findings (1) or operational failure
// (2).
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Main runs the suite and exits.
func Main(analyzers ...*analysis.Analyzer) {
	os.Exit(run(os.Args[1:], analyzers))
}

// run dispatches on the argument shape; it returns the process exit code.
func run(args []string, analyzers []*analysis.Analyzer) int {
	switch {
	case len(args) == 1 && (args[0] == "-V=full" || args[0] == "--V=full"):
		// The go command hashes the tool's identity into its build cache
		// key via this handshake; content-hash the binary so a rebuilt
		// siglint invalidates cached vet results.
		return printVersion()
	case len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags"):
		// The go command asks which analyzer flags the tool accepts before
		// forwarding any; siglint keeps its configuration in source
		// directives instead, so: none.
		fmt.Println("[]")
		return 0
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		return unitcheck(args[0], analyzers)
	}
	fmt.Fprintf(os.Stderr, "siglint proves this repo's runtime invariants at compile time.\n\n")
	fmt.Fprintf(os.Stderr, "usage:\n  go vet -vettool=$(command -v siglint || echo ./siglint.bin) ./...\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	return 2
}

func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	h := sha256.New()
	if f, err := os.Open(exe); err == nil {
		_, _ = io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, h.Sum(nil))
	return 0
}

// vetConfig mirrors the JSON the go command writes next to each package it
// vets (cmd/go/internal/work's vetConfig). Fields the suite does not need
// are omitted; unknown JSON fields are ignored by encoding/json anyway.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// unitcheck typechecks the one package a .cfg describes against its
// dependencies' export data and runs every analyzer over it.
func unitcheck(cfgFile string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("parsing %s: %v", cfgFile, err))
	}
	// The suite is fact-free, but the protocol requires the facts file to
	// exist for the go command to cache and chain the result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return fail(err)
		}
	}
	if cfg.VetxOnly {
		// Dependency-only visit: nothing to report, facts written, done.
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// Comments are parsed: the directives live there.
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return typecheckFailure(cfg, err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor("gc", os.Getenv("GOARCH")),
	}
	if _, err := tc.Check(cfg.ImportPath, fset, files, info); err != nil {
		return typecheckFailure(cfg, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err))
	}
	diags := RunAnalyzers(fset, files, info, analyzers)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [siglint/%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// RunAnalyzers applies the suite to one already-typechecked package and
// returns its diagnostics sorted by position. Shared by the vet tool and
// the analyzertest harness.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, info *types.Info, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		a.Run(analysis.NewPass(a, fset, files, info, func(d analysis.Diagnostic) {
			diags = append(diags, d)
		}))
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}

// typecheckFailure is what a package that does not parse or typecheck
// costs: nothing when the go command says it reports that failure itself.
func typecheckFailure(cfg vetConfig, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	return fail(err)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "siglint:", err)
	return 2
}
