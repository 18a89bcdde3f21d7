// Package analyzertest runs an analyzer over a golden package and checks
// its diagnostics against `// want` comments, mirroring x/tools'
// analysistest convention on the standard library alone:
//
//	rt.pools.get() // want `drawn from .*get is not released`
//
// Each `// want` carries one or more quoted regular expressions (double or
// back quotes). Every diagnostic must match a want on its line, and every
// want must be matched exactly once; anything else fails the test.
//
// Golden packages live under <analyzer>/testdata/src/<name> and may import
// only the standard library: they are typechecked with the stdlib source
// importer, which resolves imports from GOROOT source and needs no
// compiled export data.
package analyzertest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// Run analyzes testdata/src/<pkgname> under dir with a and compares the
// diagnostics against the package's // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgname string) {
	t.Helper()
	src := filepath.Join(dir, "src", pkgname)
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("reading %s: %v", src, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(src, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", src)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tc := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := tc.Check(pkgname, fset, files, info); err != nil {
		t.Fatalf("typechecking %s: %v", pkgname, err)
	}
	diags := driver.RunAnalyzers(fset, files, info, []*analysis.Analyzer{a})
	check(t, fset, files, diags)
}

// want is one expectation: a regexp anchored to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("//[ \t]*want[ \t]+(.*)")

// quoted matches one double- or back-quoted string.
var quoted = regexp.MustCompile("^[ \t]*(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := m[1]
				for {
					q := quoted.FindStringSubmatch(rest)
					if q == nil {
						break
					}
					rest = rest[len(q[0]):]
					lit := q[1]
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", pos, lit, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
