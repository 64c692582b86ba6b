package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TypedErrAnalyzer protects the typed-error contract on request paths: the
// database/sql driver decides whether to back off and retry (ErrOverloaded,
// deadline errors wrapping context.DeadlineExceeded) or to surface an error
// verbatim, purely via errors.Is over typed sentinels that PR 7 threaded
// admission → core → engine → wire → driver. A request-path return of a
// naked errors.New or a fmt.Errorf without %w creates an error no layer can
// classify — the silent regression this analyzer forbids.
//
// Scope: packages internal/core, internal/admission, internal/wire and
// replication/sqldriver; within them, "request path" means functions whose
// results include *engine.Result (the statement-execution signature) and
// error-returning methods on session/connection types (receiver named
// *Session, Conn, Stmt, Tx, Rows, or Controller). Sentinel definitions
// (package-level `var ErrX = errors.New(...)`) are the sanctioned place for
// naked constructors and are out of scope by construction.
//
// A deliberate untyped return — a client-usage error no retry can fix that
// intentionally matches no sentinel — carries `// lint:typederr-ok <reason>`.
var TypedErrAnalyzer = &Analyzer{
	Name: "typederr",
	Doc:  "request-path errors must be (or wrap, via %w) a typed sentinel so retryable/deadline classification survives",
	Run:  runTypedErr,
}

var typedErrPkgs = []string{
	"internal/core",
	"internal/admission",
	"internal/wire",
	"replication/sqldriver",
}

// requestPathReceivers are receiver type-name shapes whose error-returning
// methods sit on the client request path even when they do not return
// *engine.Result (freshness waits, admission, driver interface methods).
func isRequestPathReceiver(name string) bool {
	return strings.HasSuffix(name, "Session") ||
		name == "Conn" || name == "Stmt" || name == "Tx" || name == "Rows" ||
		name == "Controller" || name == "Slot"
}

func runTypedErr(pass *Pass) error {
	if !pass.pkgPathHasSuffix(typedErrPkgs...) {
		return nil
	}
	for _, f := range pass.prodFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isRequestPath(pass, fn) {
				continue
			}
			if pass.funcAnnotated(fn, "typederr-ok") {
				continue
			}
			checkTypedErrFunc(pass, fn)
		}
	}
	return nil
}

// isRequestPath decides whether fn's returned errors reach the driver's
// retryable/deadline classification.
func isRequestPath(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Results == nil {
		return false
	}
	returnsError := false
	returnsResult := false
	for _, field := range fn.Type.Results.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if t == nil {
			continue
		}
		if isErrorType(t) {
			returnsError = true
		}
		if namedTypeIn(t, "engine", "Result") {
			returnsResult = true
		}
	}
	if !returnsError {
		return false
	}
	if returnsResult {
		return true
	}
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		if isRequestPathReceiver(namedTypeName(pass.TypesInfo.Types[fn.Recv.List[0].Type].Type)) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func checkTypedErrFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			call, ok := res.(*ast.CallExpr)
			if !ok {
				continue
			}
			if pkgFuncCall(pass.TypesInfo, call, "errors", "New") {
				if !pass.annotatedAt(call.Pos(), "typederr-ok") {
					pass.Reportf(call.Pos(),
						"request path returns naked errors.New: no driver layer can classify it as retryable or deadline — wrap a typed sentinel with %%w, or annotate // lint:typederr-ok <reason>")
				}
				continue
			}
			if pkgFuncCall(pass.TypesInfo, call, "fmt", "Errorf") && !errorfWrapsW(call) {
				if !pass.annotatedAt(call.Pos(), "typederr-ok") {
					pass.Reportf(call.Pos(),
						"request path returns fmt.Errorf without %%w: the error chain breaks here and errors.Is classification (retryable/deadline) silently regresses — wrap a typed sentinel with %%w, or annotate // lint:typederr-ok <reason>")
				}
			}
		}
		return true
	})
}

// errorfWrapsW reports whether a fmt.Errorf call's format literal contains
// a %w verb. Non-literal formats are assumed wrapping (unknowable here).
func errorfWrapsW(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		return true
	}
	return strings.Contains(lit.Value, "%w")
}

// namedTypeName returns the name of t's defined type after pointer
// indirection, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
