// Package analysis is a minimal, dependency-free skeleton of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer runs over one
// typechecked package (a Pass) and reports position-anchored Diagnostics.
// The repo cannot vendor x/tools (the build is offline by policy), so the
// subset this suite actually needs — fact-free, package-at-a-time analyzers
// — is reimplemented here on the standard library alone. The driver in
// internal/analysis/driver adapts it to `go vet -vettool` (the unitchecker
// wire protocol); the test harness in internal/analysis/analyzertest
// mirrors x/tools' analysistest `// want` convention.
//
// The package also owns the `//siglint:` directive index. Directives are
// how source code talks back to the suite:
//
//	//siglint:deterministic        package doc: replay-deterministic package
//	//siglint:noalloc              func doc: steady state must not allocate
//	//siglint:poolget              func doc: calls mint a pooled reference
//	//siglint:poolput              func doc: consumes pooled args/receiver
//	//siglint:wallclock <why>      opt-out: legitimate wall-clock read
//	//siglint:leakok <why>         opt-out: pooled object escapes by design
//	//siglint:allocok <why>        opt-out: allocation is amortized/cold
//
// Opt-outs require a justification — a bare opt-out is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	Name string
	// Doc is a one-paragraph description of what the analyzer proves.
	Doc string
	// Run reports diagnostics on the pass. Analyzers are fact-free: each
	// package is analyzed in isolation.
	Run func(*Pass)
}

// Pass carries one typechecked package through an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info
	// Dirs indexes the package's //siglint: directives.
	Dirs *Directives

	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// NewPass assembles a Pass; report receives each diagnostic as it is made.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		TypesInfo: info,
		Dirs:      NewDirectives(fset, files),
		report:    report,
	}
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// IsTestFile reports whether pos lies in a _test.go file. The suite's
// analyzers prove runtime invariants; test files measure time, read
// counters after joins and leak on purpose, so every analyzer skips them.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// Directive is one parsed //siglint:<name> [reason] comment.
type Directive struct {
	Name   string
	Reason string
}

// Directives indexes every //siglint: comment of a package by file:line,
// plus the package-level set (directives in any file's package doc).
type Directives struct {
	fset   *token.FileSet
	byLine map[string][]Directive
	pkg    []Directive
}

const prefix = "//siglint:"

func parseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	body := strings.TrimPrefix(c.Text, prefix)
	name, reason, _ := strings.Cut(body, " ")
	return Directive{Name: name, Reason: strings.TrimSpace(reason)}, name != ""
}

// NewDirectives scans the files (which must have been parsed with
// parser.ParseComments) for //siglint: directives.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[string][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				d.byLine[key] = append(d.byLine[key], dir)
			}
		}
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if dir, ok := parseDirective(c); ok {
					d.pkg = append(d.pkg, dir)
				}
			}
		}
	}
	return d
}

// Package reports whether the package carries the named directive in any
// file's package doc comment.
func (d *Directives) Package(name string) bool {
	for _, dir := range d.pkg {
		if dir.Name == name {
			return true
		}
	}
	return false
}

// At returns the named directive attached to pos: on the same line
// (trailing comment) or on the line directly above (its own comment line).
func (d *Directives) At(pos token.Pos, name string) (Directive, bool) {
	p := d.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, dir := range d.byLine[fmt.Sprintf("%s:%d", p.Filename, line)] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// Func returns the named directive from a function's doc comment.
func Func(fd *ast.FuncDecl, name string) (Directive, bool) {
	if fd.Doc == nil {
		return Directive{}, false
	}
	for _, c := range fd.Doc.List {
		if dir, ok := parseDirective(c); ok && dir.Name == name {
			return dir, true
		}
	}
	return Directive{}, false
}

// OptOut checks for the named opt-out directive at pos (line-level) or on
// the enclosing function fd (doc-level; fd may be nil). It returns whether
// the opt-out applies; an opt-out without a justification is reported and
// still applies (one finding, not two).
func (p *Pass) OptOut(pos token.Pos, fd *ast.FuncDecl, name string) bool {
	dir, ok := p.Dirs.At(pos, name)
	if !ok && fd != nil {
		dir, ok = Func(fd, name)
	}
	if !ok {
		return false
	}
	if dir.Reason == "" {
		// Reported at the opted-out site, not the comment: the finding
		// should point at code.
		p.Reportf(pos, "//siglint:%s needs a justification (\"//siglint:%s <why>\")", name, name)
	}
	return true
}

// FuncObj resolves a call expression to the *types.Func it invokes (static
// calls and method calls; nil for calls through function values, built-ins
// and type conversions).
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsPkgFunc reports whether f (non-nil) is the named function (or method,
// matching "Recv.Name") of the package at path.
func IsPkgFunc(f *types.Func, path, name string) bool {
	if f.Pkg() == nil || f.Pkg().Path() != path {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return f.Name() == name
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()+"."+f.Name() == name
}
