package lint

import (
	"go/ast"
	"go/types"
)

// calleeObj resolves a call expression to the function or method
// object it invokes (nil for builtins, type conversions, and calls of
// computed function values).
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		// Package-qualified call (fmt.Fprintf): the selector has no
		// Selection entry; the Sel ident resolves directly.
		return info.Uses[fn.Sel]
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin
// (append, delete, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// receiverNamed returns the defined type of a method object's
// receiver, following pointers (nil for non-methods).
func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named
}

// isMethodOn reports whether obj is a method whose receiver is the
// named type pkgPath.typeName (pointer receivers included).
func isMethodOn(obj types.Object, pkgPath, typeName string) bool {
	named := receiverNamed(obj)
	if named == nil {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == pkgPath && tn.Name() == typeName
}

// recvPkgPath returns the import path of a method's receiver type
// ("" for non-methods and receivers without a package).
func recvPkgPath(obj types.Object) string {
	named := receiverNamed(obj)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// isPkgFunc reports whether obj is the package-level function
// pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// funcScopes returns every function body in the file — declarations
// and literals — paired so analyzers can treat each body as its own
// scan unit. Literals are reported separately AND remain part of
// their enclosing body's subtree; analyzers that must not cross into
// a nested function use walkShallow.
func funcScopes(f *ast.File) []ast.Node {
	var scopes []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			scopes = append(scopes, n)
		}
		return true
	})
	return scopes
}

// funcBody returns a function scope's body (nil for bodyless decls).
func funcBody(scope ast.Node) *ast.BlockStmt {
	switch fn := scope.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// walkShallow visits every node beneath root in source order without
// descending into nested function literals, so per-function analyses
// don't attribute a goroutine body's calls to its parent.
func walkShallow(root ast.Node, visit func(ast.Node) bool) {
	first := true
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if first {
			first = false
			return visit(n)
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// pathMatcher returns a Match function accepting exactly the given
// import paths.
func pathMatcher(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(path string) bool { return set[path] }
}

// mentions reports whether n uses the variable obj.
func mentions(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
