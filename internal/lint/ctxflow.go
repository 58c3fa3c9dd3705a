// Analyzer ctxflow: cancellation must flow from the caller, never be
// manufactured in library code.
//
// The cancellation chain (PR 3/6/9) is ctx → runstate.State → solver
// checkpoint polls. A library function that calls context.Background() or
// context.TODO() silently severs that chain: everything downstream of it
// becomes uncancellable no matter what the caller passed. So:
//
//   - Library code — every package except main packages (binary entry
//     points under cmd/ and examples/ own their root context) — must not
//     call context.Background or context.TODO. The sanctioned exceptions
//     are the few non-Ctx convenience shims (internal/evolve's Observe and
//     ObserveDelta), which carry a function-level
//     `//lint:allow ctxflow -- ...` directive; the driver both suppresses
//     them and exports the AllowFact that documents the contract.
//
//   - A function that has a ctx in scope must thread it: every same-module
//     callee that has a Ctx-variant sibling (a function named <F>Ctx whose
//     first parameter is a context.Context — recorded as CtxVariantFact,
//     so the check crosses package boundaries) must be called through that
//     variant. Calling plain <F> from ctx-bearing code quietly discards
//     the caller's deadline and cancel signal.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var Ctxflow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "library code must not manufacture contexts (Background/TODO) and must thread a received ctx to Ctx-variant callees",
	Severity:  SeverityError,
	FactTypes: []Fact{(*CtxVariantFact)(nil)},
	Run:       runCtxflow,
}

// CtxVariantFact is exported on a function F when its package also declares
// FCtx taking a context.Context: callers holding a ctx must use the
// variant.
type CtxVariantFact struct {
	Variant string `json:"variant"`
}

func (*CtxVariantFact) AFact() {}

func runCtxflow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // binaries own their process lifetime and root contexts
	}
	variants := exportCtxVariants(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasCtx := funcHasCtx(pass, fd)
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, made := contextConstructor(pass, call); made {
					pass.Reportf(call.Pos(), "context.%s() in library code severs the caller's cancellation chain: accept a ctx parameter and pass it through (binary entry points (main packages) own root contexts; sanctioned shims carry a function-level lint:allow)", name)
					return true
				}
				if !hasCtx {
					return true
				}
				fn := calleeAnyFunc(pass, call)
				if fn == nil {
					return true
				}
				variant := ""
				if v, ok := variants[fn]; ok {
					variant = v
				} else {
					var fact CtxVariantFact
					if pass.ImportObjectFact(fn, &fact) {
						variant = fact.Variant
					}
				}
				if variant != "" && fn.Name()+"Ctx" != fd.Name.Name {
					// (the second clause exempts a Ctx variant implemented by
					// delegating to its own plain sibling)
					pass.Reportf(call.Pos(), "ctx is in scope but %s discards it: call %s and pass the ctx so cancellation reaches the solver", fn.Name(), variant)
				}
				return true
			})
		}
	}
	return nil
}

// exportCtxVariants pairs each function F with a same-receiver sibling FCtx
// whose first parameter is a context.Context, exporting CtxVariantFact on F.
func exportCtxVariants(pass *Pass) map[*types.Func]string {
	type declKey struct{ recv, name string }
	decls := map[declKey]*types.Func{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[declKey{recvTypeName(fn), fn.Name()}] = fn
		}
	}
	out := map[*types.Func]string{}
	for k, fn := range decls {
		if strings.HasSuffix(k.name, "Ctx") {
			continue
		}
		vfn, ok := decls[declKey{k.recv, k.name + "Ctx"}]
		if !ok || !firstParamIsContext(vfn) {
			continue
		}
		name := vfn.Name()
		if k.recv != "" {
			name = k.recv + "." + name
		}
		out[fn] = name
		pass.ExportObjectFact(fn, &CtxVariantFact{Variant: name})
	}
	return out
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func firstParamIsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// contextConstructor matches context.Background() / context.TODO().
func contextConstructor(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}

// funcHasCtx reports whether the function binds a context.Context — a
// parameter or local the author could have threaded.
func funcHasCtx(pass *Pass, fd *ast.FuncDecl) bool {
	has := false
	ast.Inspect(fd, func(node ast.Node) bool {
		if has {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			if _, isVar := obj.(*types.Var); isVar && isContextType(obj.Type()) {
				has = true
			}
		}
		return true
	})
	return has
}
