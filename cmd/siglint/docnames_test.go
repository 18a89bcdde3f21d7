package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocNamesResolve resolves every backticked name DESIGN.md and the
// verify skill cite: a reader is told to read or run what they name. A
// dotted name resolves when its first part names a package or a type of the
// module, a bare camelCase or capitalised identifier when some package of
// the module declares it, some type has it as a method or field or a mutants
// row is named so (an ALL_CAPS word is left alone), a
// `TestX`/`BenchmarkX`/`FuzzX`/`ExampleX` when the function exists, and a
// repository path (`:line` suffixes allowed) when the file or directory
// does. The test every mutants row names must exist too.
func TestDocNamesResolve(t *testing.T) {
	idx := indexTree(t)
	for _, m := range mutants {
		if m.test != "" && !idx.resolves(m.test) {
			t.Errorf("mutants row %s names %s, which is no test in the tree", m.name, m.test)
		}
	}
	for _, doc := range []string{"DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(filepath.Join(idx.root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range idx.unresolved(string(src)) {
			t.Errorf("%s cites `%s`, which names nothing in the tree", doc, name)
		}
	}
}

// TestDocNamesCatchStaleCites is the check's must-fail case: a document that
// cites deleted or renamed names of each kind reports exactly those, and one
// that cites live names of each kind, beside spans the check does not
// resolve, reports none.
func TestDocNamesCatchStaleCites(t *testing.T) {
	idx := indexTree(t)
	for _, c := range []struct {
		fixture string
		want    []string
	}{
		{"live.md", nil},
		{"stale.md", []string{
			"sig.Report.Wall", "Runtime.start", "shard.Autoscaler", "pacer.nextDue",
			"TestServeOverloadShedsQualityFirst", "ExampleRuntime_Wait",
			"examples/quickstart/main.go", "sig/chaos", "slab.go", "waveSlab", "endSlabs",
		}},
	} {
		src, err := os.ReadFile(filepath.Join("testdata", "docnames", c.fixture))
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.unresolved(string(src)); !slices.Equal(got, c.want) {
			t.Errorf("%s: unresolved %q, want %q", c.fixture, got, c.want)
		}
	}
}

// treeIndex is what a cited name can resolve against.
type treeIndex struct {
	root        string
	files, dirs map[string]bool            // repository paths
	top         map[string]bool            // their first elements
	decls       map[string]map[string]bool // package name → its top-level names
	members     map[string]map[string]bool // "Type" and "pkg.Type" → methods and fields
	tests       map[string]bool            // functions of test files
	names       map[string]bool            // every top-level name, method, field and mutants row
	metrics     map[string]bool            // BENCHMARK.json's workload and metric names
}

// indexTree lists the tree's files through git and parses every Go file
// outside testdata with go/parser.
func indexTree(t *testing.T) *treeIndex {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("git", "ls-files", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Skipf("needs a git checkout: %v", err)
	}
	idx := &treeIndex{root: root, files: map[string]bool{}, dirs: map[string]bool{}, top: map[string]bool{},
		decls: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		tests: map[string]bool{}, names: map[string]bool{}, metrics: map[string]bool{}}
	for _, f := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			continue // deleted, not yet staged
		}
		idx.files[f] = true
		idx.top[strings.SplitN(f, "/", 2)[0]] = true
		for d := path.Dir(f); d != "."; d = path.Dir(d) {
			idx.dirs[d] = true
		}
		if strings.HasSuffix(f, ".go") && !strings.Contains("/"+f, "/testdata/") {
			idx.addGoFile(t, f)
		}
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	src, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(src, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range slices.Concat(bench.Workloads, bench.EndToEnd, bench.PerLayer) {
		idx.metrics[m.Name] = true
	}
	for _, m := range mutants {
		idx.names[m.name] = true
	}
	return idx
}

func (idx *treeIndex) addGoFile(t *testing.T, f string) {
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join(idx.root, f), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := strings.TrimSuffix(file.Name.Name, "_test")
	add := func(m map[string]map[string]bool, key, name string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		if name != "" {
			m[key][name] = true
			idx.names[name] = true
		}
	}
	member := func(typ, name string) {
		add(idx.members, typ, name)
		add(idx.members, pkg+"."+typ, name)
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
				continue
			}
			add(idx.decls, pkg, d.Name.Name)
			if strings.HasSuffix(f, "_test.go") {
				idx.tests[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(idx.decls, pkg, n.Name)
					}
				case *ast.TypeSpec:
					add(idx.decls, pkg, s.Name.Name)
					member(s.Name.Name, "") // a type with no members still names a type
					var fields []*ast.Field
					switch typ := s.Type.(type) {
					case *ast.StructType:
						fields = typ.Fields.List
					case *ast.InterfaceType:
						fields = typ.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							member(s.Name.Name, n.Name)
						}
						if len(fld.Names) == 0 { // embedded: named by its type
							member(s.Name.Name, typeName(fld.Type))
						}
					}
				}
			}
		}
	}
}

// typeName is the name of a receiver's or an embedded field's type: T for
// T, *T, T[P] or pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

var (
	testCite   = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)[A-Z_]\w*(/\S*)?$`)
	dotted     = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$`)
	bare       = regexp.MustCompile(`^([a-z]\w*[A-Z]|[A-Z]\w*[a-z])\w*$`) // camelCase or capitalised, not ALL_CAPS
	lineSuffix = regexp.MustCompile(`(:\d+)+$`)
	fileExt    = regexp.MustCompile(`\.(go|md|json|ya?ml|golden|mod)$`)
	codeSpan   = regexp.MustCompile("`([^`]+)`")
)

// unresolved returns, in order of first appearance, the backticked names of
// doc (outside fenced code blocks) that should resolve and do not.
func (idx *treeIndex) unresolved(doc string) []string {
	var prose []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if !fenced {
			prose = append(prose, line)
		}
	}
	var bad []string
	for _, m := range codeSpan.FindAllStringSubmatch(strings.Join(prose, " "), -1) {
		if name := m[1]; !idx.resolves(name) && !slices.Contains(bad, name) {
			bad = append(bad, name)
		}
	}
	return bad
}

// resolves reports whether a cited span names something in the tree, or is
// not a kind of name the check resolves: a command line, an expression on a
// variable, a standard-library name.
func (idx *treeIndex) resolves(span string) bool {
	if idx.metrics[span] {
		return true
	}
	if first, _, _ := strings.Cut(strings.TrimSpace(span), " "); testCite.MatchString(first) { // `TestX/sub -v` names TestX
		return idx.tests[strings.SplitN(first, "/", 2)[0]]
	}
	name := span
	if i := strings.IndexAny(name, "({["); i > 0 {
		name = name[:i] // `f(args)`, `T{fields}`
	}
	if strings.ContainsAny(name, " \t<>*$}") || strings.HasPrefix(name, "-") || strings.HasPrefix(name, "//") || strings.HasSuffix(name, "/") {
		return true
	}
	p := strings.TrimSuffix(strings.TrimPrefix(lineSuffix.ReplaceAllString(name, ""), "./"), "/...")
	dir, _, _ := strings.Cut(p, "/")
	switch {
	case fileExt.MatchString(p): // a repository path, or one relative to a package
		for f := range idx.files {
			if f == p || strings.HasSuffix(f, "/"+p) {
				return true
			}
		}
		return false
	case strings.Contains(p, "/") && idx.top[dir]:
		return idx.dirs[p]
	case bare.MatchString(name):
		return idx.names[name]
	case strings.Contains(p, "/") || !dotted.MatchString(name):
		return true // net/http, a workload/metric pair, a bare word
	}
	parts := strings.Split(name, ".")
	if decls, ok := idx.decls[parts[0]]; ok {
		if decls[parts[1]] && (len(parts) < 3 || idx.members[parts[0]+"."+parts[1]][parts[2]]) {
			return true
		}
		if idx.members[parts[0]] == nil {
			return false
		}
	}
	if members, ok := idx.members[parts[0]]; ok {
		return members[parts[1]]
	}
	return true
}
