// The traced run: per-layer numbers measured from outside the program.
//
// Setup is re-done with a span around each layer's public entry point
// (DatasetGenerator::Generate, EmbeddingModel::EmbedBatch,
// VectorDatabase::AddChunks + FinalizeIndex). The workload is then served
// twice, untraced and traced, and every counter is harvested from the traced
// run's RunMetrics. Only then are the served queries replayed, one by one and
// in execution order, through the layers' public calls (Embed, RetrieveBatch,
// Tokenize, JointScheduler::Choose, and for the mutable index
// InsertChunks/DeleteChunks), each call inside its own span.

#ifndef METIS_PERFBENCH_LAYERS_H_
#define METIS_PERFBENCH_LAYERS_H_

#include "trace.h"
#include "workloads.h"

namespace perfbench {

Outcome RunTraced(const Workload& w, Tracer* tracer);

}  // namespace perfbench

#endif  // METIS_PERFBENCH_LAYERS_H_
