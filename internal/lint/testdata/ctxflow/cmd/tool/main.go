// Binary entry points own their root contexts: ctxflow skips main packages.
package main

import "context"

func main() {
	run(context.Background())
}

func run(ctx context.Context) { _ = ctx }
