package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Maporder enforces the determinism invariant behind every Table 1
// bit-identity claim: Go map iteration order is random, so a `range`
// over a map in the deterministic packages must not feed anything
// order-sensitive — RNG draws (the PR 1 dataset bug: a rand call
// inside map iteration made profile generation nondeterministic),
// emitted output, wire encoding, or a result slice that is consumed
// unsorted. The sorted-keys idiom is recognized: appends inside the
// loop are fine when the destination slice is passed to a sort call
// later in the same function.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map bodies in the deterministic packages that draw RNG values, " +
		"emit output, encode wire bytes, send on channels, or append to a slice that is " +
		"never sorted afterwards — map order is random, so each of these makes output " +
		"depend on iteration order",
	Match: pathMatcher(
		"knnpc/internal/core",
		"knnpc/internal/pigraph",
		"knnpc/internal/tuples",
		"knnpc/internal/partition",
		"knnpc/internal/dataset",
		"knnpc/internal/netstore",
	),
	Run: runMaporder,
}

// emitName matches function/method names that write or encode:
// io.Writer methods, fmt emitters, and this repo's encode/append
// wire-layout helpers.
var emitName = regexp.MustCompile(`^(Write|Fprint|Print|Encode|encode|Append[A-Z]|append[A-Z])`)

func runMaporder(pass *Pass) error {
	for _, file := range pass.Files {
		for _, scope := range funcScopes(file) {
			body := funcBody(scope)
			if body == nil {
				continue
			}
			walkShallow(body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.Info.Types[rng.X].Type; t == nil {
					return true
				} else if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, body, rng)
				return true
			})
		}
	}
	return nil
}

// checkMapRange scans one range-over-map body for order-sensitive
// sinks. body is the enclosing function body, used to look for
// sort calls after the loop.
func checkMapRange(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt) {
	walkShallow(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside range over a map: receivers observe random map order; iterate sorted keys instead")
		case *ast.CallExpr:
			if isBuiltin(pass.Info, n, "append") {
				checkMapRangeAppend(pass, body, rng, n)
				return true
			}
			obj := calleeObj(pass.Info, n)
			if obj == nil {
				return true
			}
			switch {
			case isRNG(obj):
				pass.Reportf(n.Pos(), "RNG draw inside range over a map: the value stream depends on random map order (the PR 1 determinism bug); iterate sorted keys instead")
			case emitName.MatchString(obj.Name()) && isEmitter(obj):
				pass.Reportf(n.Pos(), "%s inside range over a map emits in random map order; iterate sorted keys instead", obj.Name())
			}
		}
		return true
	})
}

// checkMapRangeAppend handles append inside a map range: allowed only
// when the destination slice is sorted later in the same function —
// the collect-keys-then-sort idiom.
func checkMapRangeAppend(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, call *ast.CallExpr) {
	dest := appendDest(pass.Info, call)
	if dest == nil {
		pass.Reportf(call.Pos(), "append inside range over a map with an unidentifiable destination: the element order is random; collect into a named slice and sort it")
		return
	}
	if sortedAfter(pass.Info, body, rng, dest) {
		return
	}
	pass.Reportf(call.Pos(), "append to %q inside range over a map, and %q is never sorted afterwards in this function: the element order is random; sort it before use", dest.Name(), dest.Name())
}

// appendDest resolves the slice variable an `x = append(x, ...)` form
// grows (nil when the first argument is not a plain variable).
func appendDest(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// sortedAfter reports whether a sort.* / slices.Sort* call mentioning
// obj appears in the function body after the range statement ends.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeObj(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if p := callee.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isRNG reports whether obj is a stateful random source: any method
// on *math/rand.Rand or a top-level math/rand draw. Pure seeded
// hashes (splitmix-style) are order-insensitive and deliberately not
// matched.
func isRNG(obj types.Object) bool {
	if isMethodOn(obj, "math/rand", "Rand") || isMethodOn(obj, "math/rand/v2", "Rand") {
		return true
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "math/rand" || p == "math/rand/v2"
}

// isEmitter reports whether an emit-named callee actually writes
// somewhere: a method on any type, or a function from fmt / this
// repo (encode helpers). Plain locals named e.g. `encodeFn` resolve
// to *types.Func too when declared as functions, which is the point —
// name plus function-ness is the contract.
func isEmitter(obj types.Object) bool {
	_, ok := obj.(*types.Func)
	return ok
}
