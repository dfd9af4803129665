# Developer targets. `make check` is the tier-1 verification plus the
# race detector — the live executor (internal/exec) runs every operator
# on its own goroutine, so every test run under -race is part of its
# correctness argument.

GO ?= go

.PHONY: build test vet lint census allow-count race exec-stress check examples figures-check loc loc-check oracle traced-oracle oracle-poison soak fuzz bench-alloc flight-sample trace-sample

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static invariants: the five pjoinlint analyzers (hotpath, opcontract,
# poolsafe, spanpair, locksafe) over the whole tree. Zero unsuppressed
# diagnostics is the gate; suppressions need a //pjoin:allow with a
# justification. See DESIGN.md §14.
lint:
	$(GO) run ./cmd/pjoinlint ./...

# Reachability census: builds every main package with -dumpdep and fails
# on a non-test function or method no program reaches that is not in
# internal/lint/testdata/census.golden (test support, with its reason).
# `go test ./...` runs it too; this prints the count. See DESIGN.md §14.
census:
	$(GO) test -count=1 -v -run TestCensus ./internal/lint/

# Suppression budget: the lines that spell //pjoin:allow in non-test Go
# files — the markers themselves plus the nine places the linter's own
# documentation and messages name the directive. The number is meant to
# only go down: allow-count prints it and fails above ALLOW_CEILING (the
# CI lint job runs it), and a change that retires a marker lowers the
# ceiling with it.
ALLOW_CEILING := 20
allow-count:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
		! -path './internal/lint/*/testdata/*' -exec cat {} + | grep -c '//pjoin:allow'); \
	echo $$n; \
	test $$n -le $(ALLOW_CEILING) || \
		{ echo "allow-count: $$n //pjoin:allow lines, the ceiling is $(ALLOW_CEILING)" >&2; exit 1; }

race:
	$(GO) test -race ./...

# Short edges make the once-rare interleavings of an exec edge the common
# ones: a send blocked under the edge mutex while the linger callback
# fires, close during a blocked send, cancel while blocked. The tests that
# reach them — exit hygiene, borrowed results, batched equivalence, the
# in-flight bound, back-pressure, the driver's event-time alignment (one
# progress test per release rule) and the sources' lent views of a shared
# input (paced, unpaced, read by a Sink, cancelled) — run twenty times
# under the race detector on one, two and four Ps. About four minutes;
# CI's check job runs it after `make check`.
exec-stress:
	@for procs in 1 2 4; do \
		echo "GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs $(GO) test -race -count=20 -timeout 900s ./internal/exec/ \
			-run 'Hygiene|Borrowed|Batched|InFlight|Skew|Align|Untouched' || exit 1; \
	done

check: build vet lint race

# The examples are self-checking demos: each exits non-zero when its run
# goes wrong, on facts that do not depend on the schedule (never the
# purged / dropped-on-the-fly split). auction: 594 results, 40 of 40
# totals emitted early, 80 punctuations out, join state 0. nary: 8
# orders out, both joins' state 0, 24 punctuations. pipeline: one derived
# punctuation per Open tuple (60), join state 0, some per-bidder totals.
# quickstart: 2 results, 2 punctuations out, state 1 (item 2 is never
# punctuated). sensors: 37 results, state 0. CI's check job runs them.
examples:
	@for e in ./examples/*/; do \
		echo "$$e"; \
		$(GO) run "$$e" > /dev/null || exit 1; \
	done

# Paper reproduction gate: every experiment is deterministic — virtual
# clock, seeded workloads — so every plotted series of `pjoinbench -all`
# must come back byte for byte as committed in results.csv (ext-latency's
# latency quantiles included). About 34 s on a 2-vCPU Intel
# Xeon; 49 s on the same machine while the latency sweeps still ran
# apart, as -bench4 / -bench5 JSON files with every cell run twice.
# CI's check job runs it after `make check`. A change that means
# to move a series regenerates the file in place (`pjoinbench -all -csv
# results.csv`) and commits it. On a mismatch it names each series that
# moved, with the number of its rows (series, x) that differ or exist on
# one side only, and fails.
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/pjoinbench" ./cmd/pjoinbench && \
	"$$tmp/pjoinbench" -all -csv "$$tmp/results.csv" > /dev/null && \
	if cmp -s "$$tmp/results.csv" results.csv; then \
		echo "figures-check: results.csv reproduces byte for byte"; \
	else \
		echo "figures-check: results.csv does not reproduce; series that moved:" >&2; \
		awk -F, 'FNR == 1 { next } { k = $$1 FS $$2 } \
			NR == FNR { want[k] = $$3; next } \
			!(k in want) || want[k] != $$3 { moved[$$1]++ } { delete want[k] } \
			END { for (k in want) { split(k, f, FS); moved[f[1]]++ } \
				for (s in moved) { n++; printf "  %s: %d rows differ\n", s, moved[s] } \
				if (!n) print "  none: every row matches, their order or layout moved" }' \
			results.csv "$$tmp/results.csv" | sort >&2; \
		exit 1; \
	fi

# Non-test Go lines of the engine, commands and examples (not the
# benchmark harness, the lint fixtures or build outputs): the number a
# "net-negative" claim is made in. CI prints it for merge-base and head.
# Like the suppression budget it is meant to only go down: loc-check
# fails above LOC_CEILING (the CI lint job runs it), a change that
# shrinks the tree lowers the ceiling to its measured figure, and one
# that must grow it raises the ceiling in the same diff, where review
# sees it.
LOC_CEILING := 20974
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './.bench_build/*' ! -path './internal/lint/*/testdata/*' \
		-exec cat {} + | wc -l
loc-check:
	@n=$$($(MAKE) -s loc); echo $$n; \
	test $$n -le $(LOC_CEILING) || \
		{ echo "loc-check: $$n non-test Go lines, the ceiling is $(LOC_CEILING)" >&2; exit 1; }

# Differential oracle soak: ORACLE_SEEDS seeded scenarios, each run
# through the full 30-row operator configuration matrix (PJoin/XJoin x
# disk-pass schedule {drained, 512 B steps} x fault injection, one
# 64 KiB-budget row per operator, the batched-delivery
# rows, and the scrambled rows whose tuples' own Ts is not their arrival
# time; XJoin is core.NewXJoin, the join without its punctuation
# components) against the brute-force shj oracle and each other, every
# row's counters against what it was fed and emitted. About 11-14 s for
# 400 seeds on a 2-vCPU Intel Xeon (14-18 s with the 38 rows of the
# spill-cache axis), where 200 seeds took 12-13 s while the matrix
# still had its 21 sharded rows. Failures auto-shrink to a
# one-line replay spec (feed it to `pjoinbench -oracle-replay`). See
# DESIGN.md §11.
ORACLE_SEEDS ?= 400
oracle:
	ORACLE_SEEDS=$(ORACLE_SEEDS) $(GO) test ./internal/oracle/ -run TestSoak -count=1 -timeout 600s -v

# Traced-oracle soak: the same seeded scenarios run with a span
# recorder attached over the mechanism-diverse traced variant slice,
# reconciling the spans against operator metrics through the one table
# (oracle/spancheck) — Σ purge-span drops == Metrics.Purged, purge_run ==
# PurgeRuns, pass_chunk == DiskChunks, every punctuation lifecycle
# closes, every pass trace is start/io/end. See DESIGN.md §7.
traced-oracle:
	ORACLE_SEEDS=$(ORACLE_SEEDS) $(GO) test ./internal/oracle/ -run TestTracedOracle -count=1 -timeout 600s -v

# store's tests and both soaks again with recycled join-state wrappers
# poisoned (the pjoin_poison build tag, internal/store/poison_on.go): a
# wrapper read after it was recycled then makes wrong pairs the multiset
# check reports with a seed, where a zeroed one panics on a nil tuple
# without one. The spill store zeroes the blocks it frees, which no
# record parses from, and its model test runs with them. CI's oracle job
# runs it.
oracle-poison:
	$(GO) test -tags=pjoin_poison ./internal/store/ -count=1
	GOFLAGS=-tags=pjoin_poison $(MAKE) oracle traced-oracle

# The long form of core's TestLifecycleSoak: 10^7 tuples through each of
# its six runs (constant, range and mixed punctuations; with and without
# spilling), holding punctuation sets and
# state under their bounds with no growth over the second half. The
# tier-1 form feeds 16,000 tuples per run.
soak:
	$(GO) test -tags=pjoin_soak ./internal/core/ -run TestLifecycleSoak -count=1 -timeout 90m -v

# Short coverage-guided fuzz of the oracle's scenario decoder + a
# mechanism-diverse variant slice, then of punct's window views against
# materialised punctuations. Corpora under each package's testdata/fuzz;
# crashes land there as pinned inputs.
fuzz:
	$(GO) test ./internal/oracle/ -run='^$$' -fuzz FuzzOracle -fuzztime 60s
	$(GO) test ./internal/punct/ -run='^$$' -fuzz '^FuzzWindow$$' -fuzztime 30s

# Fault-injection flight-recorder sample: wedge a join on a failing
# spill device, let the lag SLO fire, dump the last spans + histogram
# snapshots — then read the dump back alone: its ring spans are a trace,
# so pjointrace's root-cause table (open pass, unpropagated punctuation,
# the spill error) comes from the one file.
flight-sample:
	$(GO) run ./cmd/pjoinbench -flight-sample flight-sample.jsonl.gz
	$(GO) run ./cmd/pjointrace -flight flight-sample.jsonl.gz | tail -n 12

# End-to-end provenance sample: a traced auctiond run (every tuple
# sampled so the report has full critical paths) analyzed by
# pjointrace. -strict makes lifecycle violations (orphan spans,
# unclosed punctuation traces) fail the target, so this doubles as an
# integration check of the whole trace → analyze path.
trace-sample:
	$(GO) run ./cmd/auctiond -items 500 -trace trace-sample.jsonl.gz -trace-sample 1
	$(GO) run ./cmd/pjointrace -strict trace-sample.jsonl.gz > trace-sample.report.txt
	cat trace-sample.report.txt

# Hot-path allocation micro-benchmarks (probe/insert, punctuation
# matching, and Value's Hash, Equal and Compare on ints and strings;
# -benchmem semantics via b.ReportAllocs()), then the
# end-to-end guards of the result path: what a whole live Run allocates
# per join result when the consumer drops the results (the edge builds
# them in the batch it is filling: ~0.003 allocations, ~3.3 B) and when it
# keeps them (one chunked copy: ~256 B), and per input tuple at fan-out 1,
# where what the state keeps of each arrival shows whole (~163 B;
# ~178-181 B while a Value was 32 bytes, ~192 B while each source copied
# its input into batches of its own, before source edges carried views
# of it). A regression of the reuse path, of the stored tuple, of the
# Value's size or of the sources' lent views shows in those lines
# without any timed row. Then the rooms of the batches an operator-fed
# edge at batch size 256 delivers: all 64 on a punctuation-cut input,
# 256 (and the 64-item batches born before the first filled) on a dense
# one.
# Then the shj reference's objects per
# result for a key with 1 match and one with 1,000 (0: it lends results
# from a slab it rewinds; 2 when it built each on the heap). Last, the
# spill path: the
# objects a cold disk pass allocates (~61) and those of each pass of one
# driver, where every pass after the first reads 0, and the bytes of a
# warm pass over string payloads (~9-11 KB: the payloads of the records
# in a pair it emits, the only ones it decodes in full; ~198 KB when it
# decoded every record), then what the simulated disk allocates under
# 64-partition spill/truncate churn against its peak live bytes (~197 KB
# for ~94 KB live; the partitions' high waters, which it held while each
# kept its largest extent, sum to ~3.9 MB). Then what
# handling a punctuation allocates on the join's direct drive (0: a
# punctuation set reuses the entries it removes), what the keys a
# group-by closes add per punctuation (0: consecutive keys extend one
# closed interval; an entry and an index slot each when it kept the
# punctuations), what a group's whole life costs the group-by — opened,
# fed, closed by its punctuation (0: a closed group's aggregate is
# reused and its row lent from a rewound slab; ~0.064 objects when each
# took a slab slot and a row of its own) — and the wrapper chunks a
# join state carves in a steady insert/purge cycle (0: purged wrappers
# are reused; one per 255 inserts when none were). CI's bench job
# prints them.
bench-alloc:
	$(GO) test -run=NONE -bench='Probe|Insert|SetMatch|Matches|Value(Hash|Equal|Compare)' ./internal/joinbase/ ./internal/punct/ ./internal/value/
	$(GO) test -run='TestPipelineAllocsPer' -count=1 -v ./internal/exec/ | grep -E 'per result|^(ok|FAIL|---)'
	$(GO) test -run='TestEdgeBatchesFollowWhatTheyCarry' -count=1 -v ./internal/exec/ | grep -E 'by room|^(ok|FAIL|---)'
	$(GO) test -run='TestResultsAllocateNothing' -count=1 -v ./internal/shj/ | grep -E 'per result|^(ok|FAIL|---)'
	$(GO) test -run='TestDiskPass.*Allocs' -count=1 -v ./internal/joinbase/ | grep -E 'objects|bytes per warm pass|^(ok|FAIL|---)'
	$(GO) test -run='TestMemSpillHoldsPeakLive' -count=1 -v ./internal/store/ | grep -E 'peak of|^(ok|FAIL|---)'
	$(GO) test -run='TestPunctPathAllocs' -count=1 -v ./internal/core/ | grep -E 'per punctuation|^(ok|FAIL|---)'
	$(GO) test -run='TestGroupByPunctAllocs' -count=1 -v ./internal/op/ | grep -E 'per punctuation|^(ok|FAIL|---)'
	$(GO) test -run='TestGroupByAllocsPerGroup' -count=1 -v ./internal/op/ | grep -E 'per group|^(ok|FAIL|---)'
	$(GO) test -run='TestInsertPurgeCycleReusesWrappers' -count=1 -v ./internal/store/ | grep -E 'wrapper chunks|^(ok|FAIL|---)'
