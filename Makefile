# Nautilus reproduction - build/test/bench entry points.
#
#   make check   tier-1 gate: build + vet + race-enabled tests
#   make lint    static gate: go vet + gofmt formatting check
#   make test    plain test run (fastest)
#   make cover   coverage run with a total-statement-coverage floor
#   make bench   Go micro/macro benchmarks with allocation counts
#   make tables  regenerate every paper table (RESULTS.md to stdout)
#
# End-to-end performance is measured by perfbench (see perfbench/README.md):
#   bash perfbench/run.sh --workload search --seed 1 --seconds 15 --trace 0

GO ?= go

# Total statement coverage must not drop below this floor (the tree sits
# around 80%; the gap is headroom for new code, not license to delete tests).
COVER_FLOOR ?= 75

.PHONY: all check lint fmt build vet test race cover bench tables clean

all: check

check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (listing the offending files) when anything is not gofmt-clean.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
	{ echo "coverage fell below the $(COVER_FLOOR)% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

tables:
	$(GO) run ./cmd/experiments

clean:
	$(GO) clean ./...
	rm -f coverage.out
