// A main package outside cmd/ is a binary entry point too: ctxflow skips it.
package main

import (
	"context"

	"ctxf.example/internal/solver"
)

func main() {
	_ = solver.SolveCtx(context.Background(), 1)
}
