// Package pragma is the source-to-source translator of the programming
// model: the Go analogue of the paper's SCOOP-based #pragma compiler. It
// lowers directive comments
//
//	//sig:task label(L) in(a,b) out(c) significant(expr) approxfun(f)
//	//sig:taskwait label(L) ratio(expr)
//
// to sig runtime calls: the statement following a //sig:task directive is
// wrapped into rt.Submit with the clauses mapped onto functional options,
// and a //sig:taskwait becomes rt.Wait. The paper's data clauses in(...),
// out(...) and inout(...) are accepted and lower to nothing: the runtime does
// no dependence tracking, so they carry no meaning. Translation is two-pass,
// so the ratio declared at a taskwait is propagated to the group handle used
// by the submissions that textually precede it — mirroring how the paper's
// runtime learns the ratio only at the synchronization point.
package pragma

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Options configures the translation.
type Options struct {
	// Runtime is the name of the in-scope *sig.Runtime variable
	// (default "rt").
	Runtime string
}

const (
	taskDirective     = "//sig:task"
	taskwaitDirective = "//sig:taskwait"
)

// directive is one parsed //sig: comment.
type directive struct {
	wait    bool
	clauses map[string][]string // clause name -> raw argument texts
	pos     token.Pos           // start of the comment
	end     token.Pos           // end of the comment
}

// edit replaces source bytes [start,end) with text.
type edit struct {
	start, end int
	text       string
}

// TransformFile lowers every //sig: directive in src and returns the
// gofmt-formatted result. name is used for error positions only.
func TransformFile(name string, src []byte, opt Options) ([]byte, error) {
	rt := opt.Runtime
	if rt == "" {
		rt = "rt"
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("pragma: parsing %s: %w", name, err)
	}
	offset := func(p token.Pos) int { return fset.Position(p).Offset }

	var dirs []directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok, err := parseDirective(c)
			if err != nil {
				return nil, fmt.Errorf("pragma: %s: %w", fset.Position(c.Pos()), err)
			}
			if ok {
				dirs = append(dirs, d)
			}
		}
	}
	if len(dirs) == 0 {
		return format.Source(src)
	}

	// Pass 1: resolve each label's ratio from its taskwait clause.
	ratios := make(map[string]string)
	for _, d := range dirs {
		if !d.wait {
			continue
		}
		label := d.clause("label")
		if ratio := d.clause("ratio"); ratio != "" {
			ratios[label] = ratio
		}
	}
	groupExpr := func(label string) string {
		ratio := ratios[label]
		if ratio == "" {
			ratio = "1.0"
		}
		return fmt.Sprintf("%s.Group(%s, %s)", rt, strconv.Quote(label), ratio)
	}

	// Collect every statement for directive→statement attachment.
	var stmts []ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock {
				stmts = append(stmts, s)
			}
		}
		return true
	})
	sort.Slice(stmts, func(i, j int) bool { return stmts[i].Pos() < stmts[j].Pos() })

	// Pass 2: build the edits.
	var edits []edit
	for di, d := range dirs {
		if d.wait {
			label := d.clause("label")
			var repl string
			if label == "" && ratios[""] == "" {
				repl = fmt.Sprintf("%s.WaitAll()", rt)
			} else {
				// An unlabeled taskwait with a ratio clause waits
				// on the default ("") group so the ratio applies.
				repl = fmt.Sprintf("%s.Wait(%s)", rt, groupExpr(label))
			}
			edits = append(edits, edit{offset(d.pos), offset(d.end), repl})
			continue
		}
		stmt := nextStmt(stmts, d.end)
		if stmt == nil {
			return nil, fmt.Errorf("pragma: %s: //sig:task directive with no following statement",
				fset.Position(d.pos))
		}
		// Each //sig:task needs a statement of its own, and no other
		// directive may live inside that statement: stacked or nested
		// directives would make the rewrites overlap.
		if di+1 < len(dirs) && dirs[di+1].pos < stmt.End() {
			return nil, fmt.Errorf("pragma: %s: //sig:task directive overlapping the directive at %s (stacked or nested directives are not supported)",
				fset.Position(d.pos), fset.Position(dirs[di+1].pos))
		}
		stmtText := strings.TrimSpace(string(src[offset(stmt.Pos()):offset(stmt.End())]))
		var opts []string
		if label := d.clause("label"); label != "" || ratios[""] != "" {
			// Unlabeled tasks still need an explicit group handle
			// when an unlabeled taskwait declared a ratio for the
			// default group.
			opts = append(opts, fmt.Sprintf("sig.WithLabel(%s)", groupExpr(label)))
		}
		if s := d.clause("significant"); s != "" {
			opts = append(opts, fmt.Sprintf("sig.WithSignificance(%s)", s))
		}
		if fn := d.clause("approxfun"); fn != "" {
			call, err := approxCall(fset, src, stmt, fn)
			if err != nil {
				return nil, fmt.Errorf("pragma: %s: %w", fset.Position(d.pos), err)
			}
			opts = append(opts, fmt.Sprintf("sig.WithApprox(func() { %s })", call))
		}
		repl := fmt.Sprintf("%s.Submit(func() { %s }", rt, stmtText)
		for _, o := range opts {
			repl += ",\n" + o
		}
		repl += ")"
		edits = append(edits, edit{offset(d.pos), offset(stmt.End()), repl})
	}

	// Make sure the sig package is imported.
	if !importsSig(file) {
		at := offset(file.Name.End())
		edits = append(edits, edit{at, at, "\n\nimport \"repro/sig\""})
	}

	out := applyEdits(src, edits)
	formatted, err := format.Source(out)
	if err != nil {
		return nil, fmt.Errorf("pragma: generated code does not parse: %w\n%s", err, out)
	}
	return formatted, nil
}

// parseDirective recognizes and parses a //sig: comment.
func parseDirective(c *ast.Comment) (directive, bool, error) {
	text := c.Text
	var rest string
	var wait bool
	switch {
	case strings.HasPrefix(text, taskwaitDirective):
		rest, wait = text[len(taskwaitDirective):], true
	case strings.HasPrefix(text, taskDirective) && !strings.HasPrefix(text, taskwaitDirective):
		rest = text[len(taskDirective):]
	default:
		return directive{}, false, nil
	}
	clauses, err := parseClauses(rest)
	if err != nil {
		return directive{}, false, err
	}
	return directive{wait: wait, clauses: clauses, pos: c.Pos(), end: c.End()}, true, nil
}

// clause returns the single argument of a clause ("" when absent).
func (d directive) clause(name string) string {
	args := d.clauses[name]
	if len(args) == 0 {
		return ""
	}
	return strings.TrimSpace(strings.Join(args, ","))
}

// parseClauses scans "name(args) name(args) ..." with balanced parentheses.
func parseClauses(s string) (map[string][]string, error) {
	clauses := make(map[string][]string)
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		j := i
		for j < len(s) && s[j] != '(' && s[j] != ' ' && s[j] != '\t' {
			j++
		}
		name := s[i:j]
		if j >= len(s) || s[j] != '(' {
			return nil, fmt.Errorf("clause %q without parenthesized argument", name)
		}
		depth, k := 0, j
		for ; k < len(s); k++ {
			if s[k] == '(' {
				depth++
			} else if s[k] == ')' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			return nil, fmt.Errorf("unbalanced parentheses in clause %q", name)
		}
		clauses[name] = append(clauses[name], splitTopLevel(s[j+1:k])...)
		i = k + 1
	}
	return clauses, nil
}

// splitTopLevel splits on commas not nested in parentheses or brackets.
func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// nextStmt returns the first statement starting after pos.
func nextStmt(stmts []ast.Stmt, pos token.Pos) ast.Stmt {
	for _, s := range stmts {
		if s.Pos() >= pos {
			return s
		}
	}
	return nil
}

// approxCall rebuilds the task's call with the approximate function name,
// mirroring the paper's requirement that approxfun share the task
// function's signature.
func approxCall(fset *token.FileSet, src []byte, stmt ast.Stmt, fn string) (string, error) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", fmt.Errorf("approxfun requires the task statement to be a function call")
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", fmt.Errorf("approxfun requires the task statement to be a function call")
	}
	lp := fset.Position(call.Lparen).Offset
	rp := fset.Position(call.Rparen).Offset
	return fn + string(src[lp:rp+1]), nil
}

func importsSig(file *ast.File) bool {
	for _, im := range file.Imports {
		if im.Path.Value == `"repro/sig"` {
			return true
		}
	}
	return false
}

// applyEdits splices the edits (which must not overlap) into src.
func applyEdits(src []byte, edits []edit) []byte {
	sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
	out := append([]byte(nil), src...)
	for _, e := range edits {
		out = append(out[:e.start], append([]byte(e.text), out[e.end:]...)...)
	}
	return out
}
