// Per-layer measurements for traced runs. Each is taken from outside the
// layer: batch-timed or per-call-timed calls into the layer's public
// functions on the workload's own requests, or the stage durations the
// layer already reports through obs::PipelineObserver.
#pragma once

#include <vector>

#include "deploy.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Build path ledger over every span named `root` (one per snapshot
/// build): medians of the store, ct, detector and index-build stage times,
/// and of what the build spent outside them.
void add_build_layers(const std::vector<Span>& spans, const std::string& root,
                      const StageRecorder& stages, const Inputs& inputs,
                      bool routed, MetricSet& metrics);

/// What the serving-path probes need from the run's measured phases.
struct ServingContext {
  double read_p50_us = 0.0;       // traced main-phase read latency
  double lateness_p99_us = 0.0;   // generator lateness in that phase
  double trace_overhead_us = 0.0;
  double ingest_p50_ms = 0.0;
  IngestRun ingest;
};

/// Query, service, net, feed and cluster layer metrics. With a single node,
/// the cluster metrics come from a router over a one-shard plan in front of
/// that node, so every workload reports the router hop's cost.
void add_serving_layers(Deployment& deployment, const RequestPool& pool,
                        const Inputs& inputs, const StageRecorder& stages,
                        const ServingContext& context, MetricSet& metrics);

}  // namespace perfbench
