# Convenience targets for the FCatch reproduction.

GO ?= go

.PHONY: all build vet test race check bench bench-e2e eval random campaign examples clean

all: build test

# check is the tier-1 gate: build + vet + tests + race-detector tests. The
# race pass matters since the pipeline fans out across cores (Parallelism).
check: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# The end-to-end benchmark (perfbench/README.md): every BENCHMARK.json
# workload at its declared run length. The last line of each run is the JSON
# result.
bench-e2e:
	for w in eval-sweep campaign-coverage dist-coverage; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 25 --trace 0 || exit 1; \
	done

# Regenerate every table and experiment of the paper's evaluation.
eval:
	$(GO) run ./cmd/fcatch-bench -all -pruning

# The Section 8.3 baseline at full scale: the campaign engine's random
# strategy, 400 runs on each of the six workloads.
random:
	for w in 'CA1&2' HB1 HB2 MR1 MR2 ZK; do \
		$(GO) run ./cmd/fcatch-campaign -workload "$$w" -strategy random -runs 400 || exit 1; \
	done

# The §8.3-extended campaign strategy comparison at full scale.
campaign:
	$(GO) run ./cmd/fcatch-bench -campaign -runs 400

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mapreduce-commit
	$(GO) run ./examples/hbase-meta-hang
	$(GO) run ./examples/correlated-findings
	$(GO) run ./examples/random-vs-fcatch -runs 100

clean:
	rm -f bench_output.txt
	rm -rf .bench_build
