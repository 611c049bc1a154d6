// The runner-facing name of the shared execution-pool abstraction.
//
// EnsembleRunner schedules campaign points and figure replications on a
// runner::Executor, cavenet-serve its worker lanes. Both resolve to
// cavenet::exec (util/executor.h) — one pool seam, which is also where a
// multi-machine job server would plug in.
#ifndef CAVENET_RUNNER_EXECUTOR_H
#define CAVENET_RUNNER_EXECUTOR_H

#include "util/executor.h"

namespace cavenet::runner {

using Executor = exec::Executor;
using InlineExecutor = exec::InlineExecutor;
using ThreadPoolExecutor = exec::ThreadPoolExecutor;

}  // namespace cavenet::runner

#endif  // CAVENET_RUNNER_EXECUTOR_H
