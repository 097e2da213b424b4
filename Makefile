GO ?= go
VETBIN := $(CURDIR)/.cache/cbvrvet

.PHONY: all build test race vet vet-standalone bench-check mutate clean

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the stock vet pass plus the cbvrvet suite (lockorder,
# ctxloop, poolguard, noalloc, errvet) the way CI does: through
# `go vet -vettool`, which caches per-package analysis facts in the Go
# build cache so warm runs re-analyze only changed packages.
vet: $(VETBIN)
	$(GO) vet ./...
	$(GO) vet -vettool=$(VETBIN) ./...

# vet-standalone runs the suite through its own loader (no go vet in
# front) — slower, no fact cache, but a single process that is easier
# to debug or run under a debugger.
vet-standalone:
	$(GO) run ./tools/cbvrvet ./...

# bench-check vets and tests the nested cbvr/bench module, which tier-1
# `./...` does not descend into: it compiles against the engine API, so a
# rename there breaks the benchmark without any other target noticing.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# mutate runs the mutation runner (tools/mutate) over its full target
# list: a seeded sample of mutants of the feature kernels, the search
# path and vstore's commit path, each run through `go test -overlay`.
# Under two hours on two cores. The JSON report goes to stdout, progress
# and the per-target counts to stderr.
mutate:
	$(GO) run ./tools/mutate

$(VETBIN): FORCE
	@mkdir -p $(dir $(VETBIN))
	$(GO) build -o $(VETBIN) ./tools/cbvrvet

.PHONY: FORCE
FORCE:

clean:
	rm -rf $(CURDIR)/.cache
