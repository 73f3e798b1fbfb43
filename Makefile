# Developer checks. `make check` is the gate every change should pass.

GO ?= go
RACE_PKGS := ./internal/core ./internal/obs ./internal/protocol ./internal/rlnc ./internal/swarm ./internal/transport
# Packages with build-tag-gated accelerated kernels; purego forces the
# scalar reference implementations so both dispatch arms stay tested.
PUREGO_PKGS := ./internal/gf/... ./internal/rlnc/...

.PHONY: check build crossbuild vet fmt lint deadpkg test benchcheck purego race churn lossy poison fuzz allocguard bench-gate swarm scale bench

check: vet fmt lint deadpkg build crossbuild test benchcheck purego race churn lossy poison fuzz allocguard bench-gate swarm

build:
	$(GO) build ./...

# The arm64 NEON kernels have no execution leg in CI; cross-compiling
# keeps the assembly and its dispatch glue at least building on every
# change.
crossbuild:
	GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Metric naming contract: every exported series matches ^ncast_[a-z0-9_]+$.
# Nil policy: every bundle built from a nil registry is usable, so no
# caller compares a bundle to nil.
lint:
	$(GO) test -run 'TestMetricNameLint|TestSessionMetricNames' .
	$(GO) test -run TestNilRegistryBundles ./internal/obs

# Dead-package gate: every ncast/internal/... package must be reached
# by the façade, a command, an example or the benchmark module (read
# with go list only). A package only its own tests import is deleted,
# not kept compiling.
deadpkg:
	@all=$$($(GO) list ./internal/...) || exit 1; \
	main=$$($(GO) list -deps . ./cmd/... ./examples/...) || exit 1; \
	bench=$$(cd benchmark && $(GO) list -deps ./...) || exit 1; \
	dead=$$(printf '%s\n' "$$all" | grep -vxF -e "$$main" -e "$$bench"); \
	if [ -n "$$dead" ]; then \
		echo "internal packages nothing imports:"; echo "$$dead"; exit 1; \
	fi

test:
	$(GO) test ./...

# benchmark/ is its own module, which ./... above does not reach; it
# compiles against internal/... and is what every change is scored with.
benchcheck:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)

purego:
	$(GO) test -tags purego $(PUREGO_PKGS)

# Race-check the concurrency-heavy packages (atomics in obs, the tracker
# and node state machines, the parallel decoder, both transports).
race:
	$(GO) test -race $(RACE_PKGS)

# Control-plane fault-tolerance suite under the race detector: lease
# sweep of crashed leaves, outbox behavior behind stalled peers, churn
# over the fault-injection transport, malformed control frames, the
# send-deadline contract (QueueWait on a full in-memory or UDP send
# queue and on a TCP dial, caller deadlines kept on both queues), a
# rejection after a re-join, the node clock (good-bye retries end with
# Run, a clamped tiny ComplaintTimeout, keepalives, forwarding and the
# first hello behind a stalled tracker, a first hello whose dial failed,
# keepalive beats behind a stalled child), a client's goroutine count,
# completion feedback (a lying child, a child that stops probing, a
# decoded overlay gone quiet without a complaint), the node's telemetry
# under its one lock (stats reports while two decode workers judge traced
# frames), the outbox's retry ladder on a full queue, the §5
# congestion episode, whose congested/uncongested messages no other suite
# sends, and the node's thread records (beats in record order, a redirect
# that overtakes the welcome, sequence numbers across a thread drop and a
# re-join). Each suite's -run pattern is defined once; poison composes them.
CHURN_RUN := Churn|Lease|Stalled|Faulty|Goodbye|SendDeadline|LeafCrash|Telemetry|Timeline|ClusterSnapshot|TraceLive|Rejoin|Footprint|Clamp|FirstHello|Feedback|Congest|HeldThread
churn:
	$(GO) test -race -run '$(CHURN_RUN)' ./internal/protocol ./internal/transport .

# Datagram-plane suite under the race detector: the UDP endpoint, its
# batched I/O and its send contract (a one-batch queue with a yield per
# enqueue, and the SendDeadlineUDP pair: QueueWait on a full queue, a
# caller's deadline kept), same-port dual-plane binding, the end-to-end
# broadcasts that run at 5% injected datagram loss (the loss-as-normal
# regime), one of them through nodes that absorb and recode on two
# decode workers each, the link-telemetry drill that must localize a
# 10%-lossy peer to ±3pp, the completion-feedback suite, whose
# reports ride the keepalives of the datagram plane, and a paced stream
# over the lossy in-memory datagram plane that must decode in order.
LOSSY_RUN := UDP|SamePort|Dual|Datagram|SplitSender|Lossy|Link|Feedback|Stream
lossy:
	$(GO) test -race -run '$(LOSSY_RUN)' ./internal/transport ./internal/protocol ./internal/obs .

# Use-after-release gate: with -tags ncastpoison, Frame.Release overwrites
# every released receive buffer, so a handler that keeps a frame past its
# release reads garbage. The churn and lossy suites, the attack suite
# (freeloader, entropy attacker) and the batched-receive tests run over
# the poisoned build under the race detector.
poison:
	$(GO) test -race -tags ncastpoison -run '$(CHURN_RUN)|$(LOSSY_RUN)|Freeloader|Entropy|Poison|RecvBatch|Batched|Forward' ./internal/protocol ./internal/transport .

# Short deterministic fuzz budgets over the wire decoders and the stream
# framing; go's fuzzer accepts one -fuzz pattern per invocation, so each
# target runs alone.
fuzz:
	$(GO) test ./internal/protocol -run xxx -fuzz FuzzDecodeControl -fuzztime 10s
	$(GO) test ./internal/protocol -run xxx -fuzz FuzzDecodeData -fuzztime 10s
	$(GO) test ./internal/protocol -run xxx -fuzz FuzzDecodeKeepalive -fuzztime 5s
	$(GO) test ./internal/transport -run xxx -fuzz FuzzSplitSender -fuzztime 5s

# Allocation guards: with sampling off, the traced emit/receive hot path
# must allocate nothing beyond the untraced baseline, and a recoder
# must allocate nothing after a generation's first packet (systematic
# installs, redundant packets, emits), the source's send path must
# allocate about nothing, unpaced and paced (at most 0.05 objects a
# frame: pooled packets and frame buffers, one routing buffer across
# rounds, no per-send context and one reusable timer across paced
# rounds), a node's forward path must allocate about nothing (at most
# 0.01 objects a frame: both hops copy into receive buffers that their
# receivers release, and no per-frame context), a control message sent
# by the tracker's outbox or a swarm shard must allocate about nothing
# beyond its encoded frame (at most 0.01 objects: one send window per
# loop, no per-message context), a frame over loopback UDP or TCP, or the
# in-memory fabric, must allocate about nothing when its receiver
# releases it and exactly its one buffer when it does not, a
# hello+welcome round trip through the control codec must allocate only
# its two frames, the address and the thread list, and the decoders of
# the generations a node starts must cost four objects per chunk of 64
# generations (rlnc.NewRecoders: the recoders and the three slabs they
# share), not four per generation.
allocguard:
	$(GO) test ./internal/protocol -run TestTracedHotPathAllocs -count=1
	$(GO) test ./internal/protocol -run TestLinkHotPathAllocs -count=1
	$(GO) test ./internal/protocol -run TestSourceEmitAllocs -count=1
	$(GO) test ./internal/protocol -run TestForwardPathAllocs -count=1
	$(GO) test ./internal/protocol ./internal/swarm -run TestControlDeliverAllocs -count=1
	$(GO) test ./internal/transport -run 'TestUDPRecvBatchAllocs|TestTCPRecvBatchAllocs|TestMemRecvBatchAllocs|TestMemRecvWithoutReleaseAllocatesOnce' -count=1
	$(GO) test ./internal/protocol -run TestControlCodecAllocs -count=1
	$(GO) test ./internal/rlnc -run TestDecodeHotPathAllocs -count=1
	$(GO) test ./internal/protocol -run TestDecoderChunkAllocs -count=1

# Perf regression gate: emit paths and the fused four-row gf.Dot stay
# zero-alloc, and a 64 B GF(2^8) AddMulSlice costs at most half a 1 KiB
# one (no per-call fixed cost).
bench-gate:
	$(GO) run ./cmd/ncast-perf -gate

# Swarm harness drill matrix under the race detector: 1000 virtual
# nodes walk all four hostile-world scenarios (flash crowd, churn with
# rejoin, heterogeneous fleet, adversarial batch failure) against a live
# tracker, plus the lifecycle/determinism/goroutine-footprint suite.
# The 100k-node version of the same drills is the bench path:
#   $(GO) run ./cmd/ncast-scale -o BENCH_control.json
swarm:
	$(GO) test -race -count=1 ./internal/swarm

# Control-plane capacity trajectory (quick shape: small populations).
# The committed BENCH_control.json comes from the full run:
#   $(GO) run ./cmd/ncast-scale -o BENCH_control.json
scale:
	$(GO) run ./cmd/ncast-scale -quick -o /dev/null

# Data-plane fast-path trajectory: kernel throughput, emit-path allocs,
# and serial-vs-parallel file decode, recorded in BENCH_rlnc.json.
bench:
	$(GO) run ./cmd/ncast-perf -o BENCH_rlnc.json
	$(GO) test . -run NONE -bench . -benchmem
