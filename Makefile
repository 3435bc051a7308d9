GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet lint verify experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis: formatting and vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...

# The full tier-1 gate plus fuzz smokes, as verify.sh.
verify:
	FUZZTIME=$(FUZZTIME) ./verify.sh

experiments:
	$(GO) run ./cmd/ecslab all
