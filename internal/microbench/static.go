package microbench

// Static Δ-code-size analysis for Fig. 11: the module rewriter inserts
// guard code at every store and cross-domain call site; the code-size
// multiplier is (statements + guard sites × guard cost) / statements.
// Rather than declaring numbers, this file parses the Go source of the
// workload implementations (microbench.go) with go/ast and counts the
// sites the rewriter would instrument inside each workload's module
// functions.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
)

// guardStmtCost is the code footprint of one inserted guard, in
// statement-equivalents (a call plus a branch).
const guardStmtCost = 2

// guardMethods are the Thread methods whose call sites the rewriter
// instruments (stores and cross-domain calls).
var guardMethods = map[string]bool{
	"Write": true, "WriteU64": true, "WriteU32": true, "WriteU16": true,
	"WriteU8": true, "Zero": true,
	"CallKernel": true, "CallAddr": true,
	// The bound-gate crossing entry point (gate.go): same wrapper, same
	// guards, resolved at bind time.
	"Call": true,
}

// workloadFuncs maps each Fig. 11 benchmark to the constructor whose
// module function literals constitute the workload's code.
var workloadFuncs = map[string]string{
	"hotlist": "NewHotlist",
	"lld":     "NewLld",
	"MD5":     "NewMD5",
}

type staticCounts struct {
	stmts  int
	guards int
}

var staticCache map[string]staticCounts

// analyze parses microbench.go once and tallies statements and guard
// sites per workload constructor.
func analyze() map[string]staticCounts {
	if staticCache != nil {
		return staticCache
	}
	staticCache = make(map[string]staticCounts)

	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return staticCache
	}
	src := filepath.Join(filepath.Dir(thisFile), "microbench.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		return staticCache
	}

	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var name string
		for wl, ctor := range workloadFuncs {
			if fd.Name.Name == ctor {
				name = wl
			}
		}
		if name == "" {
			continue
		}
		var c staticCounts
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case ast.Stmt:
				c.stmts++
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && guardMethods[sel.Sel.Name] {
					c.guards++
				}
			}
			return true
		})
		staticCache[name] = c
	}
	return staticCache
}

// CodeSizeDelta returns the Δ-code-size multiplier for a workload, as
// the rewriter's inserted guards over the workload's statement count.
func CodeSizeDelta(name string) float64 {
	c, ok := analyze()[name]
	if !ok || c.stmts == 0 {
		return 1
	}
	return 1 + float64(c.guards*guardStmtCost)/float64(c.stmts)
}

// GuardSites returns the raw static counts for a workload (tests).
func GuardSites(name string) (stmts, guards int) {
	c := analyze()[name]
	return c.stmts, c.guards
}
