GO ?= go
VETBIN := $(CURDIR)/.cache/cbvrvet

.PHONY: all build test race vet vet-standalone bench-check clean

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

$(VETBIN): FORCE
	@mkdir -p $(dir $(VETBIN))
	$(GO) build -o $(VETBIN) ./tools/cbvrvet

.PHONY: FORCE
FORCE:

clean:
	rm -rf $(CURDIR)/.cache
