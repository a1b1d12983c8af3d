// The three benchmark workloads. Each builds its inputs from ctx.seed, sets
// up the system from serialized corpus XML (timed as setup_s), runs an
// untimed warm-up on a disjoint list, serves its fixed request list in
// full, and checks every answer against an untimed reference.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Closed loop over ServingEngine::Suggest on the DBLP-like corpus; every
/// query distinct, so nothing is served from the cache.
Report RunDblpTypo(const RunContext& ctx);
/// INEX-like base with live updates: a closed-loop reader whose thread
/// also makes the adds and deletes at fixed points of its list and drains
/// each auto-compaction (durable publish) before reading on.
Report RunInexLive(const RunContext& ctx);
/// Coordinator fan-out over four loopback RPC shards.
Report RunShardRpc(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
