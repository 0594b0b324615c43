// bagcpd.h — the library's single public facade.
//
// Applications include this one header and get the whole supported surface:
// the online change-point detector, the concurrent multi-stream engine, the
// spec builders / component registry, and the data generators, analysis
// helpers and baselines the examples and experiment harnesses are written
// against. All five examples (and the CI api-surface job) compile against
// only this header.
//
//   #include "bagcpd/bagcpd.h"
//
//   auto detector = bagcpd::api::DetectorSpec::FromKeyValues(
//                       "quantizer=kmeans,k=8,tau=5,tau_prime=5,score=kl")
//                       ->Create();
//
// Deep includes ("bagcpd/core/detector.h", ...) keep working and stay the
// right choice inside the library itself; external code should prefer the
// facade so internal file moves never break it.

#ifndef BAGCPD_BAGCPD_H_
#define BAGCPD_BAGCPD_H_

// Foundations: status/result error channel, points, bags, flat storage,
// matrices, RNG, pooled buffers.
#include "bagcpd/common/buffer_arena.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/common/matrix.h"
#include "bagcpd/common/point.h"
#include "bagcpd/common/result.h"
#include "bagcpd/common/rng.h"
#include "bagcpd/common/stats.h"
#include "bagcpd/common/status.h"

// Signatures: quantizers and their shared-buffer containers.
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/histogram.h"
#include "bagcpd/signature/kmeans.h"
#include "bagcpd/signature/kmedoids.h"
#include "bagcpd/signature/lvq.h"
#include "bagcpd/signature/signature.h"
#include "bagcpd/signature/signature_set.h"

// Earth Mover's Distance and the information estimators over it.
#include "bagcpd/emd/emd.h"
#include "bagcpd/emd/ground_distance.h"
#include "bagcpd/info/estimators.h"
#include "bagcpd/info/weighted_set.h"

// The detector core: scores, bootstrap CIs, the online detector, offline
// segmentation, feature selection.
#include "bagcpd/core/bootstrap.h"
#include "bagcpd/core/detector.h"
#include "bagcpd/core/feature_selector.h"
#include "bagcpd/core/profiles.h"
#include "bagcpd/core/scores.h"
#include "bagcpd/core/segmentation.h"

// Deterministic fault injection: the named fault points behind the engine's
// `fault=` option and the recovery drills in tests/ and tools/fault_drill.
#include "bagcpd/fault/fault_injector.h"

// Concurrent runtime: thread pool + keyed multi-stream engine.
#include "bagcpd/runtime/stream_engine.h"
#include "bagcpd/runtime/thread_pool.h"

// Checkpoint subsystem: wire format, blob inspection, and the file helpers
// behind detector snapshot/restore, engine checkpoints, and spill-to-disk.
#include "bagcpd/serialize/checkpoint.h"
#include "bagcpd/serialize/wire.h"

// Columnar batch frontend: grouped-table ingest, the one-call batch runner,
// its file formats, and the synthetic corpus generator.
#include "bagcpd/batch/batch_io.h"
#include "bagcpd/batch/batch_runner.h"
#include "bagcpd/batch/batch_table.h"
#include "bagcpd/batch/synthetic.h"

// Public API layer: component registry and spec builders.
#include "bagcpd/api/registry.h"
#include "bagcpd/api/spec.h"

// Analysis / evaluation helpers.
#include "bagcpd/analysis/ascii_plot.h"
#include "bagcpd/analysis/mds.h"
#include "bagcpd/analysis/metrics.h"

// Baselines of the paper's comparison section.
#include "bagcpd/baselines/changefinder.h"
#include "bagcpd/baselines/kcd.h"
#include "bagcpd/baselines/mean_reduction.h"
#include "bagcpd/baselines/one_class_svm.h"
#include "bagcpd/baselines/sdar.h"

// Synthetic data / graph generators used by the examples and experiments.
#include "bagcpd/data/bag_generators.h"
#include "bagcpd/data/ci_datasets.h"
#include "bagcpd/data/fig1.h"
#include "bagcpd/data/gmm.h"
#include "bagcpd/data/pamap_simulator.h"
#include "bagcpd/graph/bipartite_graph.h"
#include "bagcpd/graph/enron_simulator.h"
#include "bagcpd/graph/features.h"
#include "bagcpd/graph/generators.h"

// Tabular IO.
#include "bagcpd/io/csv.h"
#include "bagcpd/io/table.h"

#endif  // BAGCPD_BAGCPD_H_
