// Package analysis is repllint: a suite of project-specific static
// analyzers that mechanically enforce the invariants PRs 2–7 kept fixing by
// hand. Each analyzer is grounded in a bug class that actually shipped:
//
//   - lockedcall: *Locked helpers invoked without their mutex (the PR-6
//     snapMu/assignLocked family).
//   - typederr: request-path errors that drop the typed retryable/deadline
//     contract the database/sql driver's classification depends on (PR 7).
//   - wallclock: wall-clock time, global randomness and map-iteration-order
//     dependence in the deterministic certification paths (PR 6's offline
//     checkers are only sound if recorded orders are ground truth).
//   - slotleak: admission slots or replica semaphore acquisitions not
//     released on every control-flow path (the bug shape PR 7's
//     deadline-cancellation tests guard dynamically).
//
// The types here mirror golang.org/x/tools/go/analysis deliberately — same
// Analyzer/Pass/Diagnostic shape — but are implemented on the standard
// library alone so the module stays dependency-free. cmd/repllint drives
// them through the `go vet -vettool` compilation-unit protocol (see
// unitchecker.go) and through a package-pattern mode that re-invokes go vet,
// so local runs and CI cannot diverge.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked
// package via the Pass and reports diagnostics through pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer's view of a single type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for the package.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	annots map[*ast.File]fileAnnotations
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// fileAnnotations indexes a file's `// lint:<key> <args>` suppression
// comments by the line they occupy.
type fileAnnotations struct {
	byLine map[int][]annotation
}

type annotation struct {
	key  string // e.g. "holds", "typederr-ok"
	args string // remainder of the comment after the key
}

// AnnotationPrefix introduces a repllint suppression or assertion comment:
//
//	// lint:<key> <argument or reason>
//
// Recognized keys are documented per analyzer in docs/LINTING.md.
const AnnotationPrefix = "lint:"

func (p *Pass) annotations(f *ast.File) fileAnnotations {
	if fa, ok := p.annots[f]; ok {
		return fa
	}
	fa := fileAnnotations{byLine: make(map[int][]annotation)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, AnnotationPrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, AnnotationPrefix)
			key, args, _ := strings.Cut(rest, " ")
			line := p.Fset.Position(c.Pos()).Line
			fa.byLine[line] = append(fa.byLine[line], annotation{key: key, args: strings.TrimSpace(args)})
		}
	}
	if p.annots == nil {
		p.annots = make(map[*ast.File]fileAnnotations)
	}
	p.annots[f] = fa
	return fa
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// annotatedAt reports whether a `// lint:<key>` comment covers pos: on the
// same source line (trailing) or on the line immediately above it.
func (p *Pass) annotatedAt(pos token.Pos, key string) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	fa := p.annotations(f)
	line := p.Fset.Position(pos).Line
	for _, a := range append(fa.byLine[line], fa.byLine[line-1]...) {
		if a.key == key {
			return true
		}
	}
	return false
}

// funcAnnotated reports whether fn's declaration carries a `// lint:<key>`
// comment, either in its doc comment or on the line above it.
func (p *Pass) funcAnnotated(fn *ast.FuncDecl, key string) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, AnnotationPrefix+key) {
				return true
			}
		}
	}
	return p.annotatedAt(fn.Pos(), key)
}

// isTestFile reports whether the file at pos is a _test.go file. The lint
// invariants guard production code; tests routinely use wall clocks, raw
// text and ad-hoc errors on purpose.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// prodFiles yields the package's non-test files.
func (p *Pass) prodFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.isTestFile(f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// pkgPathHasSuffix reports whether the package's import path ends with one
// of the given suffixes. Matching by suffix (not exact path) lets the
// analyzers apply both to the real module ("repro/internal/core") and to
// analysistest fixtures ("a/internal/core").
func (p *Pass) pkgPathHasSuffix(suffixes ...string) bool {
	path := p.Pkg.Path()
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Analyzers returns the full repllint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockedCallAnalyzer,
		TypedErrAnalyzer,
		WallClockAnalyzer,
		SlotLeakAnalyzer,
	}
}

// --- shared type helpers ---

// namedTypeIn reports whether t (after pointer indirection) is a defined
// type with the given name whose package's *name* is pkgName. Matching the
// package name rather than full path keeps the analyzers testable against
// fixture stubs (a testdata "sync" package stands in for the real one).
func namedTypeIn(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (or a pointer to
// one).
func isMutex(t types.Type) bool {
	return namedTypeIn(t, "sync", "Mutex") || namedTypeIn(t, "sync", "RWMutex")
}

// pkgFuncCall reports whether call invokes the package-level function
// pkgName.funcName (matching the *name* of the imported package object).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgName, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Name() == pkgName
}

// rootIdent returns the leftmost identifier of a selector chain (x in
// x.y.z), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
