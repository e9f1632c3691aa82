// Package ctqosim reproduces "A Study of Long-Tail Latency in n-Tier
// Systems: RPC vs. Asynchronous Invocations" (Wang, Lai, Kanemasa, Zhang,
// Pu — ICDCS 2017) as a deterministic discrete-event simulation written in
// pure Go.
//
// The paper's subject is Cross-Tier Queue Overflow (CTQO): sub-second
// resource saturations (millibottlenecks) in one tier of an RPC-coupled
// n-tier system fill queues across tiers until some server's
// MaxSysQDepth — thread pool plus TCP backlog — overflows, packets drop,
// and 3-second TCP retransmissions turn millisecond requests into
// multi-second outliers at CPU utilizations as low as 43%. Replacing the
// synchronous servers with asynchronous, event-driven counterparts removes
// the coupling; with all tiers asynchronous the drops disappear entirely.
//
// The library lives under internal/: the des simulation kernel, the cpu,
// simnet, server, workload and fault substrates, the metrics and trace
// measurement layers, the ntier topology builder, and the core experiment
// facade. cmd/ntierlab run is the one way to run a scenario, a registry
// name or a scenario file, and cmd/figures regenerates every figure of
// the paper's evaluation; the examples/ programs tour the API, the
// queueing-theory baseline and the real-socket harness. bench_test.go
// holds one benchmark per figure plus ablations. See DESIGN.md for the
// full inventory and EXPERIMENTS.md for paper-vs-measured results.
package ctqosim
