#include "bagcpd/analysis/experiments.h"

#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "bagcpd/analysis/mds.h"
#include "bagcpd/common/flat_bag.h"
#include "bagcpd/data/ci_datasets.h"
#include "bagcpd/data/pamap_simulator.h"
#include "bagcpd/emd/emd.h"
#include "bagcpd/graph/enron_simulator.h"
#include "bagcpd/signature/builder.h"
#include "bagcpd/signature/signature_set.h"

// Options left alone are the paper's defaults: tau = tau' = 5, k-means with
// k = 8, 200 Bayesian-bootstrap replicates and a 95% CI.

namespace bagcpd {
namespace {

// Quantizes every bag of `bags` with one builder into one SignatureSet.
Result<SignatureSet> BuildSignatures(const SignatureBuilderOptions& options,
                                     const BagSequence& bags) {
  SignatureBuilder builder(options);
  SignatureSet signatures;
  for (std::size_t t = 0; t < bags.size(); ++t) {
    BAGCPD_ASSIGN_OR_RETURN(const FlatBag bag, FlatBag::FromBag(bags[t]));
    BAGCPD_ASSIGN_OR_RETURN(const Signature sig, builder.Build(bag.view(), t));
    BAGCPD_RETURN_NOT_OK(signatures.Append(sig));
  }
  return signatures;
}

double MeanCiWidth(const std::vector<StepResult>& steps) {
  double width = 0.0;
  for (const StepResult& r : steps) width += r.ci_up - r.ci_lo;
  return width / static_cast<double>(steps.size());
}

}  // namespace

Result<DetectorRun> RunAndEvaluate(
    const DetectorOptions& options, const BagSequence& bags,
    const std::vector<std::size_t>& change_points, std::size_t tolerance) {
  BAGCPD_ASSIGN_OR_RETURN(std::unique_ptr<BagStreamDetector> detector,
                          BagStreamDetector::Create(options));
  DetectorRun run;
  BAGCPD_ASSIGN_OR_RETURN(run.steps, detector->Run(bags));
  run.alarms = AlarmTimes(run.steps);
  run.report = EvaluateAlarms(run.alarms, change_points, tolerance);
  return run;
}

ResultSeries SliceResults(const std::vector<StepResult>& steps,
                          std::size_t stream_length) {
  ResultSeries out;
  out.score.assign(stream_length, 0.0);
  out.lo.assign(stream_length, 0.0);
  out.up.assign(stream_length, 0.0);
  if (steps.empty()) return out;
  for (const StepResult& r : steps) {
    if (r.time >= stream_length) continue;
    const std::size_t t = static_cast<std::size_t>(r.time);
    out.score[t] = r.score;
    out.lo[t] = std::isnan(r.ci_lo) ? r.score : r.ci_lo;
    out.up[t] = std::isnan(r.ci_up) ? r.score : r.ci_up;
    if (r.alarm) out.alarms.push_back(r.time);
  }
  const std::size_t first = static_cast<std::size_t>(steps.front().time);
  for (std::size_t t = 0; t < first && t < stream_length; ++t) {
    out.score[t] = out.score[first];
    out.lo[t] = out.lo[first];
    out.up[t] = out.up[first];
  }
  return out;
}

Result<Fig06Result> RunFig06(ThreadPool* pool) {
  static const char* const kDescriptions[5] = {
      "large variance, stationary", "80/20 background noise",
      "gradual circular drift", "mean jump at t=11", "drift speed-up at t=11"};
  CiDatasetOptions data_options;
  data_options.seed = 6;
  BAGCPD_ASSIGN_OR_RETURN(const std::vector<LabeledBagSequence> datasets,
                          MakeAllCiDatasets(data_options));
  DetectorOptions options;
  options.bootstrap.replicates = 400;
  options.signature.seed = 60;  // The panels quantize with these options.
  options.seed = 61;

  Fig06Result result;
  for (int index = 1; index <= 5; ++index) {
    const LabeledBagSequence& ds = datasets[index - 1];
    Fig06Dataset out;
    out.index = index;
    out.description = kDescriptions[index - 1];
    out.expects_alarm = CiDatasetHasDetectableChange(index);
    out.change_points = ds.change_points;
    BAGCPD_ASSIGN_OR_RETURN(const SignatureSet signatures,
                            BuildSignatures(options.signature, ds.bags));
    BAGCPD_ASSIGN_OR_RETURN(
        out.emd,
        PairwiseEmdMatrix(signatures, GroundDistance::kEuclidean, pool));
    BAGCPD_ASSIGN_OR_RETURN(MdsEmbedding mds, ClassicalMds(out.emd, 2));
    out.mds = std::move(mds.coordinates);
    BAGCPD_ASSIGN_OR_RETURN(
        out.run, RunAndEvaluate(options, ds.bags, ds.change_points, 1));
    out.series = SliceResults(out.run.steps, ds.bags.size());
    out.mean_ci_width = MeanCiWidth(out.run.steps);
    result.datasets.push_back(std::move(out));
  }
  return result;
}

Result<Fig07Result> RunFig07() {
  Fig07Result result;
  result.tolerance = 4;
  for (int subject = 1; subject <= 3; ++subject) {
    PamapSimulatorOptions sim;
    sim.seed = 777;
    sim.subject = subject;
    sim.sampling_hz = 50.0;  // Reduced from the real ~100 Hz for runtime.
    sim.mean_bags_per_activity = 18.0;  // ~252 bags/subject as in the paper.
    BAGCPD_ASSIGN_OR_RETURN(const PamapRecording rec,
                            SimulatePamapSubject(sim));
    const LabeledBagSequence& stream = rec.stream;
    DetectorOptions options;
    options.signature.k = 10;
    options.seed = 70 + static_cast<std::uint64_t>(subject);

    Fig07Subject out;
    out.subject = subject;
    out.bags = stream.bags.size();
    for (const Bag& bag : stream.bags) out.mean_bag_size += bag.size();
    out.mean_bag_size /= static_cast<double>(stream.bags.size());
    out.change_points = stream.change_points;
    BAGCPD_ASSIGN_OR_RETURN(
        out.run, RunAndEvaluate(options, stream.bags, stream.change_points,
                                result.tolerance));
    out.series = SliceResults(out.run.steps, stream.bags.size());
    out.mean_ci_width = MeanCiWidth(out.run.steps);
    result.subjects.push_back(std::move(out));
  }
  return result;
}

Result<Fig11Result> RunFig11(ThreadPool* pool) {
  EnronSimulatorOptions sim;
  sim.seed = 2002;
  sim.weeks = 100;
  sim.node_rate = 50.0;
  sim.edge_density = 0.25;
  BAGCPD_ASSIGN_OR_RETURN(const EnronStream stream, SimulateEnronStream(sim));
  Fig11Result result;
  for (const auto& e : stream.events) result.event_weeks.push_back(e.week);

  // One detector per feature (tau' = 3 weeks). Destination strength tracks
  // the crisis cascade best: it is charted and profiled for drift.
  const GraphFeature kCharted = GraphFeature::kDestinationStrength;
  BagSequence charted_bags;
  for (GraphFeature feature : AllGraphFeatures()) {
    BagSequence bags;
    for (const BipartiteGraph& g : stream.weekly_graphs) {
      BAGCPD_ASSIGN_OR_RETURN(Bag bag, ExtractGraphFeature(g, feature));
      bags.push_back(std::move(bag));
    }
    DetectorOptions options;
    options.tau_prime = 3;
    options.seed = 110 + static_cast<std::uint64_t>(feature);
    Fig11Feature out;
    out.feature = feature;
    BAGCPD_ASSIGN_OR_RETURN(
        out.run, RunAndEvaluate(options, bags, result.event_weeks, 3));
    if (feature == kCharted) {
      result.chart = SliceResults(out.run.steps, bags.size());
      charted_bags = std::move(bags);
    }
    result.features.push_back(std::move(out));
  }

  // The event table: an event is detected when any feature alarms from one
  // week before it to three weeks after it.
  for (const EnronEvent& event : stream.events) {
    Fig11Event out;
    out.week = event.week;
    out.label = event.label;
    out.detected_by_graphscope = event.detected_by_graphscope;
    out.first_week = event.week > 0 ? event.week - 1 : 0;
    out.last_week = event.week + 3;
    for (const Fig11Feature& feature : result.features) {
      for (std::uint64_t a : feature.run.alarms) {
        if (a >= out.first_week && a <= out.last_week) ++out.hits;
      }
    }
    if (out.hits > 0) ++result.detected;
    if (out.detected_by_graphscope) ++result.graphscope_detected;
    result.events.push_back(std::move(out));
  }

  // Drift profile: the EMD of every week's charted signature from each calm
  // opening week, averaged per quarter of the stream.
  result.calm_weeks = 20;
  SignatureBuilderOptions sig_options;
  sig_options.seed = 110 + static_cast<std::uint64_t>(kCharted);
  BAGCPD_ASSIGN_OR_RETURN(const SignatureSet all,
                          BuildSignatures(sig_options, charted_bags));
  SignatureSet calm;
  for (std::size_t t = 0; t < result.calm_weeks; ++t) {
    BAGCPD_RETURN_NOT_OK(calm.Append(all.view(t)));
  }
  BAGCPD_ASSIGN_OR_RETURN(
      const Matrix drift,
      CrossDistanceMatrix(calm, all, GroundDistance::kEuclidean, pool));
  const std::size_t weeks = all.size();
  for (std::size_t quarter = 0; quarter < 4; ++quarter) {
    const std::size_t begin = quarter * weeks / 4;
    const std::size_t end = (quarter + 1) * weeks / 4;
    double sum = 0.0;
    for (std::size_t i = 0; i < drift.rows(); ++i) {
      for (std::size_t j = begin; j < end; ++j) sum += drift(i, j);
    }
    result.drift.push_back(
        {begin, end - 1,
         sum / static_cast<double>(drift.rows() * (end - begin))});
  }
  return result;
}

Result<BootstrapAblationResult> RunBootstrapAblation() {
  BootstrapAblationResult result;
  result.draws = 400;

  // 1) Replicate granularity at a fixed inspection point with small windows.
  ScoreContext ctx;
  const std::size_t tau = 4, tau_prime = 3;
  ctx.log_ref_ref = Matrix(tau, tau, 0.4);
  ctx.log_test_test = Matrix(tau_prime, tau_prime, 0.5);
  ctx.log_ref_test = Matrix(tau, tau_prime, 1.0);
  ctx.log_ref_test(0, 0) = 1.8;
  ctx.log_ref_ref(0, 1) = 0.7;
  ctx.log_ref_ref(1, 0) = 0.7;
  const std::vector<double> pi_ref(tau, 1.0 / tau);
  const std::vector<double> pi_test(tau_prime, 1.0 / tau_prime);
  const BootstrapMethod kMethods[2] = {BootstrapMethod::kBayesian,
                                       BootstrapMethod::kStandard};
  for (BootstrapMethod method : kMethods) {
    Rng rng(40);
    std::set<long long> distinct;
    for (int r = 0; r < result.draws; ++r) {
      const std::vector<double> gr = ResampleWeights(method, pi_ref, &rng);
      const std::vector<double> gt = ResampleWeights(method, pi_test, &rng);
      const Result<double> score =
          ComputeScore(ScoreType::kSymmetrizedKl, ctx, gr, gt);
      if (score.ok()) {
        distinct.insert(static_cast<long long>(score.ValueOrDie() * 1e12));
      }
    }
    BootstrapOptions options;
    options.replicates = result.draws;
    options.method = method;
    Rng rng2(41);
    BAGCPD_ASSIGN_OR_RETURN(
        const BootstrapInterval ci,
        BootstrapScoreInterval(ScoreType::kSymmetrizedKl, ctx, pi_ref,
                               pi_test, options, &rng2));
    result.granularity.push_back({method, distinct.size(), ci.up - ci.lo});
  }

  // 2) End-to-end alarm behaviour over ten seeds.
  const int kSeeds = 10;
  for (int index : {1, 4}) {
    for (BootstrapMethod method : kMethods) {
      BootstrapBehaviour out;
      out.dataset = index;
      out.method = method;
      double width = 0.0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        CiDatasetOptions data_options;
        data_options.seed = 600 + static_cast<std::uint64_t>(seed);
        BAGCPD_ASSIGN_OR_RETURN(const LabeledBagSequence ds,
                                MakeCiDataset(index, data_options));
        DetectorOptions options;
        options.bootstrap.replicates = 200;
        options.bootstrap.method = method;
        options.seed = static_cast<std::uint64_t>(seed);
        BAGCPD_ASSIGN_OR_RETURN(
            const DetectorRun run,
            RunAndEvaluate(options, ds.bags, ds.change_points, 3));
        out.hits += run.report.true_positives;
        out.expected_hits += ds.change_points.size();
        out.false_alarms += run.report.false_positives;
        width += MeanCiWidth(run.steps);
      }
      out.mean_ci_width = width / kSeeds;
      result.behaviour.push_back(out);
    }
  }
  return result;
}

}  // namespace bagcpd
