// EnhanceNet end-to-end benchmark driver.
//
// One workload = one model trained and then served, the way a user runs it:
//
//   set-up   data, model, optimizer, one warm-up step, a session created
//            from a checkpoint, two warm-up predictions (repeated kSetupReps
//            times; the median is setup_s);
//   train    closed-loop training steps on shuffled batches (one fixed batch
//            order for every seed) with a masked-MAE loss in real units, and
//            a no-grad validation pass on a fixed subset every kEvalEvery
//            steps;
//   publish  the trained weights go through a checkpoint into a fresh
//            InferenceSession behind a MicroBatcher;
//   serve    open-loop Poisson single-window requests at the workload's two
//            fixed rates from at most kClients threads, each latency counted
//            from the request's scheduled arrival; the seed drives the
//            arrival times and the window order;
//   verify   every served forecast is compared bitwise with a direct
//            InferenceSession::Predict of the same window.
//
// The workloads are the table kWorkloads below:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --scratch DIR
//
// With --trace 1 the driver also records per-layer figures from outside the
// library: the training step split into its public calls, allocator and
// GEMM counters, batcher statistics, and replays of the trained model's
// DAMGN plus standalone DFGN, graph-apply and gated cell/conv layers built
// with the workload's sizing and shapes, each multiplied by its structural
// calls per forward. It then checks that the replays account for the
// measured forward + backward and the measured B=1 forward.
//
// The driver prints one JSON object on its last stdout line; perfbench/run.py
// turns it into the benchmark result. Run it through run.py, not directly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "core/damgn.h"
#include "core/dfgn.h"
#include "core/enhance_gru_cell.h"
#include "core/enhance_tcn_layer.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "io/checkpoint.h"
#include "models/model_factory.h"
#include "models/rnn_model.h"
#include "models/tcn_model.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "runtime/allocator.h"
#include "runtime/context.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "train/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace enhancenet {
namespace perfbench {
namespace {

namespace ag = ::enhancenet::autograd;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDataSeed = 7;    // the series and graph never change
constexpr uint64_t kModelSeed = 11;  // nor do the initial weights
constexpr uint64_t kOrderSeed = 1;   // nor does the training batch order
constexpr float kGradClip = 5.0f;
constexpr float kTeacherTau = 20.0f;  // Trainer's scheduled-sampling tau
// Shared by both workloads (perfbench/README.md has the rationale).
constexpr int64_t kEntities = 207;     // METR-LA scale
constexpr int64_t kDays = 14;          // enough test windows to never repeat
constexpr int64_t kBatch = 4;          // training batch
constexpr float kLearningRate = 0.01f;
constexpr int kEvalEvery = 4;          // training steps between validations
constexpr int64_t kEvalWindows = 16;   // fixed validation subset
constexpr int64_t kEvalBatch = 8;
constexpr int64_t kVerifyBatch = 8;
constexpr int64_t kMaxServeBatch = 8;
constexpr int kClients = 4;            // open-loop client threads, <= nproc
constexpr int kSetupReps = 3;          // setup_s is the median of these
// Traced-run checks. The replayed layer rows must account for the measured
// forward + backward (training) and the measured B=1 forward (serving):
// what they leave over, models.forward.other_ms, must stay within this share
// of the measured time. The step's stopwatch parts must sum to the step.
constexpr double kAttributionTolerancePct = 20.0;
constexpr double kStopwatchTolerancePct = 5.0;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Peak resident set size of this process, from /proc (MiB).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- workloads and options -----------------------------------------------------

/// One benchmark workload. Rates, SLO and target are frozen: they define
/// the benchmark and are never calibrated per run (perfbench/README.md).
struct Workload {
  const char* name;
  const char* model;
  int topk;                       // DAMGN top-k; 0 = dense
  double train_steps_per_second;  // of --seconds
  double target_mae;              // val MAE target, mph
  double slo_ms;
  double low_rps;
  double high_rps;
};

constexpr Workload kWorkloads[] = {
    {"dagrnn-n207", "D-DA-GRNN", 0, 0.9, 4.0, 120.0, 4.0, 10.0},
    {"dagtcn-topk16-n207", "D-DA-GTCN", 16, 0.55, 3.5, 200.0, 3.0, 6.0},
};
// Shares of --seconds given to the low- and high-rate serving phases.
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.5;

struct Options {
  Workload w{};
  int clients = kClients;
  int64_t train_steps = 0;
  double low_seconds = 0.0;
  double high_seconds = 0.0;
  uint64_t seed = 0;
  bool trace = false;
  std::string scratch;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const char* key, auto* out) {
    auto it = kv.find(key);
    if (it == kv.end()) Usage(std::string("--") + key + " is required");
    std::istringstream in(it->second);
    in >> *out;
    if (in.fail()) Usage(std::string("bad value for --") + key);
    kv.erase(it);
  };
  Options o;
  std::string workload;
  double seconds = 0.0;
  take("workload", &workload);
  take("seed", &o.seed);
  take("seconds", &seconds);
  take("trace", &o.trace);
  take("scratch", &o.scratch);
  if (!kv.empty()) Usage("unknown option --" + kv.begin()->first);
  std::string known;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) o.w = w;
    known += std::string(known.empty() ? "" : ", ") + w.name;
  }
  if (o.w.name == nullptr) Usage("unknown workload '" + workload + "'; known: " + known);
  if (seconds < 1.0) Usage("--seconds must be at least 1");
  o.train_steps =
      std::max<int64_t>(2, std::llround(o.w.train_steps_per_second * seconds));
  o.low_seconds = kLowShare * seconds;
  o.high_seconds = kHighShare * seconds;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  o.clients = std::max(1, std::min(o.clients, hw > 0 ? hw : 1));
  return o;
}

// --- problem, model, loss ------------------------------------------------------

/// The data every seed shares: series, scaler, graph and the three splits.
struct Problem {
  data::CtsData data;
  data::StandardScaler scaler;
  Tensor adjacency;  // raw distance kernel, as the model factory takes it
  std::unique_ptr<data::WindowDataset> train;
  std::unique_ptr<data::WindowDataset> val;
  std::unique_ptr<data::WindowDataset> test;
};

models::ModelSizing Sizing() { return models::ModelSizing(); }

std::unique_ptr<Problem> MakeProblem() {
  auto p = std::make_unique<Problem>();
  p->data = data::MakeEbLike(kEntities, kDays, kDataSeed);
  const data::Splits splits = data::ChronologicalSplits(p->data.num_steps());
  p->scaler.Fit(p->data.series, 0, splits.train_end);
  const Tensor scaled = p->scaler.Transform(p->data.series);
  p->adjacency = graph::GaussianKernelAdjacency(p->data.distances);
  const models::ModelSizing sizing = Sizing();
  const auto split = [&](int64_t begin, int64_t end) {
    return std::make_unique<data::WindowDataset>(
        scaled, p->data.series, p->data.target_channel, begin, end,
        sizing.history, sizing.horizon);
  };
  p->train = split(0, splits.train_end);
  p->val = split(splits.train_end, splits.val_end);
  p->test = split(splits.val_end, splits.total);
  return p;
}

/// Masked MAE in real units, differentiable (the Trainer's loss).
ag::Variable MaskedMaeLoss(const ag::Variable& pred_scaled, const Tensor& y_raw,
                           const data::StandardScaler& scaler,
                           int64_t target_channel) {
  ag::Variable pred_real =
      ag::AddScalar(ag::MulScalar(pred_scaled, scaler.stddev(target_channel)),
                    scaler.mean(target_channel));
  Tensor mask(y_raw.shape());
  const float* py = y_raw.data();
  float* pm = mask.data();
  int64_t observed = 0;
  for (int64_t i = 0; i < y_raw.numel(); ++i) {
    const bool is_null = std::fabs(py[i]) < 1e-6f;
    pm[i] = is_null ? 0.0f : 1.0f;
    observed += is_null ? 0 : 1;
  }
  ag::Variable err = ag::Mul(
      ag::Abs(ag::Sub(pred_real, ag::Variable::Leaf(y_raw, false))),
      ag::Variable::Leaf(mask, false));
  return ag::MulScalar(ag::SumAll(err),
                       1.0f / static_cast<float>(std::max<int64_t>(observed, 1)));
}

/// A model being trained, with the runtime context its steps run under (a
/// private exec config carries the workload's top-k and, when tracing, the
/// profiling switch).
struct Trainee {
  std::unique_ptr<runtime::RuntimeContext> context;
  std::unique_ptr<models::ForecastingModel> model;
  std::unique_ptr<optim::Adam> adam;
};

Trainee MakeTrainee(const Options& o, const Problem& p) {
  Trainee t;
  runtime::RuntimeContext::Options context_options;
  context_options.private_exec = true;
  t.context = std::make_unique<runtime::RuntimeContext>(context_options);
  t.context->exec().topk.store(o.w.topk, std::memory_order_relaxed);
  Rng rng(kModelSeed);
  t.model = models::MakeModel(o.w.model, kEntities, p.data.num_channels(),
                              p.adjacency, Sizing(), rng);
  t.model->SetTraining(true);
  t.adam = std::make_unique<optim::Adam>(t.model->Parameters(), kLearningRate);
  return t;
}

/// Counts the autograd nodes reachable from `root`.
int64_t CountGraphNodes(const ag::Variable& root) {
  std::unordered_set<const ag::Node*> seen;
  std::vector<const ag::Node*> stack = {root.node().get()};
  while (!stack.empty()) {
    const ag::Node* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !seen.insert(node).second) continue;
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  return static_cast<int64_t>(seen.size());
}

struct StepTimes {
  double make_batch = 0.0;
  double forward = 0.0;   // Forward + loss
  double backward = 0.0;  // ZeroGrad + Backward
  double clip = 0.0;
  double adam = 0.0;
  double total = 0.0;
  float loss = 0.0f;
};

/// One training step, each public call timed from outside. `graph_nodes`,
/// when non-null, receives the size of the recorded graph (counted between
/// the forward and backward timers).
StepTimes TrainStep(Trainee& t, const Problem& p,
                    const std::vector<int64_t>& indices, float teacher_prob,
                    Rng& rng, int64_t* graph_nodes) {
  StepTimes s;
  const Clock::time_point start = Clock::now();
  const data::Batch batch = p.train->MakeBatch(indices);
  s.make_batch = MsSince(start);
  Clock::time_point mark = Clock::now();
  ag::Variable pred = t.model->Forward(batch.x, &batch.y_scaled, teacher_prob, rng);
  ag::Variable loss =
      MaskedMaeLoss(pred, batch.y_raw, p.scaler, p.data.target_channel);
  s.forward = MsSince(mark);
  double excluded = 0.0;
  if (graph_nodes != nullptr) {
    mark = Clock::now();
    *graph_nodes = CountGraphNodes(loss);
    excluded = MsSince(mark);
  }
  mark = Clock::now();
  t.model->ZeroGrad();
  loss.Backward();
  s.backward = MsSince(mark);
  mark = Clock::now();
  optim::ClipGradNorm(t.adam->params(), kGradClip);
  s.clip = MsSince(mark);
  mark = Clock::now();
  t.adam->Step();
  s.adam = MsSince(mark);
  s.loss = loss.data().item();
  s.total = MsSince(start) - excluded;
  return s;
}

/// Raw (unscaled) history window [N, H, C] of one dataset window.
Tensor RawWindow(const Problem& p, const data::WindowDataset& ds, int64_t index) {
  const int64_t n = p.data.num_entities();
  const int64_t c = p.data.num_channels();
  const int64_t h = ds.history();
  const int64_t anchor = ds.anchors()[static_cast<size_t>(index)];
  Tensor window(Shape{n, h, c});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k < h; ++k) {
      for (int64_t ch = 0; ch < c; ++ch) {
        window.at({i, k, ch}) = p.data.series.at({i, anchor - h + 1 + k, ch});
      }
    }
  }
  return window;
}

serve::ModelSpec SpecFor(const Options& o, const Problem& p,
                         const std::string& checkpoint) {
  serve::ModelSpec spec;
  spec.model_name = o.w.model;
  spec.num_entities = kEntities;
  spec.in_channels = p.data.num_channels();
  spec.target_channel = p.data.target_channel;
  spec.adjacency = p.adjacency;
  spec.sizing = Sizing();
  spec.checkpoint_path = checkpoint;
  return spec;
}

/// Saves `model`, builds a session from the checkpoint, removes the file.
std::unique_ptr<serve::InferenceSession> Publish(const Options& o,
                                                 const Problem& p,
                                                 const models::ForecastingModel& model) {
  const std::string path = o.scratch + "/perfbench-" +
                           std::to_string(static_cast<long>(getpid())) + ".encp";
  Status status = io::SaveCheckpoint(path, model);
  if (!status.ok()) Usage("checkpoint save failed: " + status.ToString());
  serve::SessionOptions options;
  options.topk = o.w.topk;
  std::unique_ptr<serve::InferenceSession> session;
  status = serve::InferenceSession::Create(SpecFor(o, p, path), options,
                                           p.scaler, &session);
  std::remove(path.c_str());
  if (!status.ok()) Usage("session create failed: " + status.ToString());
  return session;
}

// --- set-up ------------------------------------------------------------------

struct World {
  std::unique_ptr<Problem> problem;
  Trainee trainee;
  std::unique_ptr<serve::InferenceSession> session;
};

/// Fixed, seed-independent warm-up batch.
std::vector<int64_t> WarmupIndices(const Problem& p) {
  std::vector<int64_t> indices;
  const int64_t windows = p.train->num_windows();
  for (int64_t b = 0; b < kBatch; ++b) indices.push_back((b * windows) / kBatch);
  return indices;
}

World SetUp(const Options& o) {
  World w;
  w.problem = MakeProblem();
  w.trainee = MakeTrainee(o, *w.problem);
  {
    runtime::RuntimeContext::Bind bind(*w.trainee.context);
    Rng rng(kModelSeed);
    TrainStep(w.trainee, *w.problem, WarmupIndices(*w.problem), 1.0f, rng,
              nullptr);
  }
  w.session = Publish(o, *w.problem, *w.trainee.model);
  serve::PredictRequest request;
  request.history = RawWindow(*w.problem, *w.problem->test, 0);
  for (int i = 0; i < 2; ++i) {
    serve::PredictResponse response;
    const Status status = w.session->Predict(request, &response);
    if (!status.ok()) Usage("warm-up predict failed: " + status.ToString());
  }
  return w;
}

// --- train phase ---------------------------------------------------------------

struct EvalPoint {
  int64_t step = 0;
  double train_ms = 0.0;  // cumulative training-step time at this point
  double mae = 0.0;
};

struct TrainResult {
  std::vector<StepTimes> steps;
  std::vector<bool> profiled;  // per step, trace mode alternates profiling
  std::vector<EvalPoint> evals;
  double eval_forward_ms = 0.0;
  int64_t eval_windows = 0;
  int64_t eval_forwards = 0;
  int64_t bad_losses = 0;
  int64_t graph_nodes = 0;
  double steps_to_target = 0.0;  // interpolated at the first crossing
  bool target_reached = false;
  AllocatorStats alloc;
  int64_t gemm_flops = 0;
  int64_t batch_gemm_flops = 0;
};

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->Get();
}

/// No-grad validation MAE (real units) over fixed batches.
double Validate(Trainee& t, const Problem& p,
                const std::vector<std::vector<int64_t>>& batches,
                TrainResult* result) {
  t.model->SetTraining(false);
  ag::NoGradGuard no_grad;
  train::MetricAccumulator accumulator(t.model->horizon());
  Rng rng(kModelSeed);  // eval mode draws nothing from it
  for (const auto& indices : batches) {
    const data::Batch batch = p.val->MakeBatch(indices);
    const Clock::time_point start = Clock::now();
    ag::Variable pred = t.model->Forward(batch.x, nullptr, 0.0f, rng);
    result->eval_forward_ms += MsSince(start);
    result->eval_windows += static_cast<int64_t>(indices.size());
    ++result->eval_forwards;
    accumulator.Add(p.scaler.InverseTarget(pred.data(), p.data.target_channel),
                    batch.y_raw);
  }
  t.model->SetTraining(true);
  return accumulator.Overall().mae;
}

TrainResult RunTraining(const Options& o, World& w) {
  const Problem& p = *w.problem;
  Trainee& t = w.trainee;
  runtime::RuntimeContext::Bind bind(*t.context);
  TrainResult r;

  // Fixed validation subset, evenly spaced over the split.
  std::vector<std::vector<int64_t>> val_batches;
  const int64_t val_windows = p.val->num_windows();
  const int64_t eval_windows = std::min(kEvalWindows, val_windows);
  for (int64_t i = 0; i < eval_windows; ++i) {
    if (i % kEvalBatch == 0) val_batches.emplace_back();
    val_batches.back().push_back((i * val_windows) / eval_windows);
  }

  // The training trajectory is the same for every seed: at this step count
  // the batch order alone moves steps-to-target by a fifth, far more than
  // any bound, so time-to-target and val MAE would measure the seed instead
  // of the code.
  Rng order_rng(kOrderSeed);
  Rng step_rng(kOrderSeed + 1);
  std::vector<std::vector<int64_t>> batches;
  size_t next_batch = 0;

  t.context->allocator().ResetStats();
  const int64_t gemm0 = CounterValue("tensor.gemm.flops");
  const int64_t bgemm0 = CounterValue("tensor.batch_gemm.flops");

  double train_ms = 0.0;
  r.evals.push_back({0, 0.0, Validate(t, p, val_batches, &r)});
  int64_t step = 0;
  while (step < o.train_steps) {
    if (next_batch >= batches.size()) {
      batches = p.train->ShuffledBatches(kBatch, order_rng);
      if (static_cast<int64_t>(batches.back().size()) < kBatch) batches.pop_back();
      next_batch = 0;
    }
    const float teacher_prob =
        kTeacherTau / (kTeacherTau + std::exp(static_cast<float>(step) / kTeacherTau));
    const bool profile = o.trace && step % 2 == 1;
    t.context->exec().profiling.store(profile, std::memory_order_relaxed);
    const StepTimes s =
        TrainStep(t, p, batches[next_batch++], teacher_prob, step_rng,
                  o.trace && step == 0 ? &r.graph_nodes : nullptr);
    t.context->exec().profiling.store(false, std::memory_order_relaxed);
    if (!std::isfinite(s.loss)) ++r.bad_losses;
    r.steps.push_back(s);
    r.profiled.push_back(profile);
    train_ms += s.total;
    ++step;
    if (step % kEvalEvery == 0) {
      r.evals.push_back({step, train_ms, Validate(t, p, val_batches, &r)});
    }
  }
  if (r.evals.back().step != step) {
    r.evals.push_back({step, train_ms, Validate(t, p, val_batches, &r)});
  }
  r.alloc = t.context->allocator().GetStats();
  r.gemm_flops = CounterValue("tensor.gemm.flops") - gemm0;
  r.batch_gemm_flops = CounterValue("tensor.batch_gemm.flops") - bgemm0;

  // First crossing of the target, linearly interpolated between the two
  // validation points around it so the figure is not quantized to the
  // validation cadence.
  const double target = o.w.target_mae;
  r.steps_to_target = static_cast<double>(step);
  for (size_t i = 1; i < r.evals.size(); ++i) {
    const EvalPoint& a = r.evals[i - 1];
    const EvalPoint& b = r.evals[i];
    if (b.mae > target || a.mae <= target) continue;
    const double f = (a.mae - target) / (a.mae - b.mae);
    r.steps_to_target = static_cast<double>(a.step) +
                        f * static_cast<double>(b.step - a.step);
    r.target_reached = true;
    break;
  }
  return r;
}

// --- serve phase -------------------------------------------------------------

struct Request {
  int64_t window = 0;        // test-split window index
  double offset_ms = 0.0;    // scheduled arrival from phase start
  double late_ms = 0.0;      // send time minus scheduled arrival
  double latency_ms = 0.0;   // completion minus scheduled arrival
  bool ok = false;
  std::vector<float> forecast;
};

struct PhaseResult {
  std::vector<Request> requests;
  serve::Stats batcher;  // deltas over the phase
  serve::Stats session;
};

serve::Stats Delta(const serve::Stats& after, const serve::Stats& before) {
  serve::Stats d = after;
  d.windows -= before.windows;
  d.rejected -= before.rejected;
  d.forwards -= before.forwards;
  d.forward_errors -= before.forward_errors;
  d.latency_count -= before.latency_count;
  d.total_latency_ms -= before.total_latency_ms;
  d.deadline_miss -= before.deadline_miss;
  d.flush_budget -= before.flush_budget;
  d.flush_full -= before.flush_full;
  return d;
}

/// Open-loop arrivals at `rps`: the phase is cut into one-second slots and
/// each slot receives its share of round(rps·duration) arrivals at uniform
/// random times, i.e. a Poisson process conditioned on its count per slot.
/// Bursts within a slot are those of a Poisson process; the offered load
/// over every second is the same for every seed. Each request gets a
/// distinct window, taken in order from `order` starting at `*cursor`.
std::vector<Request> Schedule(double rps, double duration_ms,
                              const std::vector<int64_t>& order,
                              size_t* cursor, Rng& rng) {
  constexpr double kSlotMs = 1000.0;
  std::vector<double> offsets;
  for (double begin = 0.0; begin < duration_ms; begin += kSlotMs) {
    const double end = std::min(duration_ms, begin + kSlotMs);
    const int64_t count = std::llround(rps * end / 1000.0) -
                          std::llround(rps * begin / 1000.0);
    for (int64_t i = 0; i < count; ++i) {
      offsets.push_back(begin + rng.Uniform() * (end - begin));
    }
  }
  std::sort(offsets.begin(), offsets.end());
  std::vector<Request> requests(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    requests[i].offset_ms = offsets[i];
    requests[i].window = order[*cursor % order.size()];
    ++*cursor;
  }
  return requests;
}

PhaseResult RunPhase(const Options& o, const World& w, serve::MicroBatcher& batcher,
                     const std::vector<Tensor>& windows,
                     std::vector<Request> requests) {
  PhaseResult result;
  const serve::Stats batcher0 = batcher.stats();
  const serve::Stats session0 = w.session->stats();
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < o.clients; ++c) {
    clients.emplace_back([&] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        Request& r = requests[i];
        const Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(r.offset_ms));
        std::this_thread::sleep_until(scheduled);
        r.late_ms = std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                        .count();
        serve::PredictRequest request;
        request.history = windows[static_cast<size_t>(r.window)];
        request.deadline_ms = o.w.slo_ms;
        serve::PredictResponse response;
        r.ok =batcher.Predict(request, &response).ok();
        r.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count();
        if (r.ok) {
          const float* data = response.forecast.data();
          r.forecast.assign(data, data + response.forecast.numel());
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  result.batcher = Delta(batcher.stats(), batcher0);
  result.session = Delta(w.session->stats(), session0);
  result.requests = std::move(requests);
  return result;
}

/// Direct batched InferenceSession::Predict of every served window; marks a
/// request failed unless its served forecast is bitwise identical and finite.
int64_t VerifyServed(const World& w, const std::vector<Tensor>& windows,
                     std::vector<PhaseResult*> phases) {
  std::map<int64_t, std::vector<float>> reference;
  for (PhaseResult* phase : phases) {
    for (const Request& r : phase->requests) reference[r.window];
  }
  std::vector<int64_t> ids;
  for (const auto& kv : reference) ids.push_back(kv.first);
  const Shape& window_shape = windows[0].shape();
  for (size_t begin = 0; begin < ids.size(); begin += kVerifyBatch) {
    const size_t end = std::min(ids.size(), begin + kVerifyBatch);
    const int64_t per_window = windows[0].numel();
    Tensor batch(Shape{static_cast<int64_t>(end - begin), window_shape[0],
                       window_shape[1], window_shape[2]});
    for (size_t i = begin; i < end; ++i) {
      std::memcpy(batch.data() + (i - begin) * per_window,
                  windows[static_cast<size_t>(ids[i])].data(),
                  static_cast<size_t>(per_window) * sizeof(float));
    }
    serve::PredictRequest request;
    request.history = batch;
    serve::PredictResponse response;
    if (!w.session->Predict(request, &response).ok()) continue;
    const int64_t per = response.forecast.numel() / static_cast<int64_t>(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const float* data = response.forecast.data() + (i - begin) * per;
      reference[ids[i]].assign(data, data + per);
    }
  }
  int64_t failed = 0;
  for (PhaseResult* phase : phases) {
    for (Request& r : phase->requests) {
      const std::vector<float>& ref = reference[r.window];
      bool good = r.ok && !ref.empty() && ref.size() == r.forecast.size() &&
                  std::memcmp(ref.data(), r.forecast.data(),
                              ref.size() * sizeof(float)) == 0;
      for (const float v : r.forecast) good = good && std::isfinite(v);
      if (!good) {
        r.ok = false;
        ++failed;
      }
    }
  }
  return failed;
}

// --- layer replays -------------------------------------------------------------

/// Per-forward cost of each replayed layer (ms) and its structural calls per
/// forward. Inclusive times: a gated cell/conv includes the graph applies
/// (and, for TCN, the DFGN) it runs; supports include the static mix.
struct LayerCosts {
  double dfgn = 0, static_mix = 0, supports = 0, apply = 0, cell = 0;
  int64_t dfgn_calls = 0, static_mix_calls = 0, supports_calls = 0,
          apply_calls = 0, cell_calls = 0;
  bool cell_includes_dfgn = false;

  /// Sum of the rows without double counting.
  double SelfSum() const {
    const double cell_self = cell - apply - (cell_includes_dfgn ? dfgn : 0.0);
    return dfgn + supports + apply + cell_self;
  }
};

/// Median wall time of `fn` over `reps` runs after one warm-up run.
double TimeMs(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(MsSince(start));
  }
  return Median(samples);
}

/// Runs the backward of `outs` against fixed pseudo-random upstream
/// gradients, generated once per shape (in the untimed warm-up run).
void BackwardFrom(const std::vector<ag::Variable>& outs) {
  static std::map<Shape, ag::Variable> weights;
  ag::Variable loss;
  for (const ag::Variable& out : outs) {
    if (!out.defined() || !out.requires_grad()) continue;
    ag::Variable& weight = weights[out.shape()];
    if (!weight.defined()) {
      Rng rng(3);
      weight = ag::Variable::Leaf(Tensor::Randn(out.shape(), rng), false);
    }
    ag::Variable term = ag::SumAll(ag::Mul(out, weight));
    loss = loss.defined() ? ag::Add(loss, term) : term;
  }
  if (loss.defined()) loss.Backward();
}

ag::Variable GradLeaf(const Tensor& data, bool grad) {
  return ag::Variable::Leaf(data.Clone(), grad);
}

/// Supports cut off from the DAMGN graph, so an apply replay backpropagates
/// into the support values (as in the model) but no further.
std::vector<graph::Support> DetachSupports(const std::vector<graph::Support>& in,
                                           bool grad) {
  std::vector<graph::Support> out;
  for (const graph::Support& s : in) {
    if (!s.is_sparse()) {
      out.emplace_back(GradLeaf(s.dense.data(), grad));
    } else {
      graph::SparseAdjacency sparse;
      sparse.index = s.sparse.index;
      sparse.values = GradLeaf(s.sparse.values.data(), grad);
      out.emplace_back(GradLeaf(s.static_part.data(), grad), sparse, s.hops,
                       s.transposed);
    }
  }
  return out;
}

std::vector<ag::Variable> SupportOutputs(const std::vector<graph::Support>& supports) {
  std::vector<ag::Variable> outs;
  for (const graph::Support& s : supports) {
    if (!s.is_sparse()) {
      outs.push_back(s.dense);
    } else {
      outs.push_back(s.sparse.values);
      outs.push_back(s.static_part);
    }
  }
  // Sparse supports share one values/static pair; count each once.
  std::vector<ag::Variable> unique;
  for (const ag::Variable& v : outs) {
    bool seen = false;
    for (const ag::Variable& u : unique) seen = seen || u.node() == v.node();
    if (!seen) unique.push_back(v);
  }
  return unique;
}

/// The parts of a trained D-DA model the replays reuse. The learned DAMGN
/// matters for timing: the dense apply kernel skips zero adjacency entries,
/// and a freshly built DAMGN (λ_B = λ_C = 0) mixes a sparser graph than the
/// trained one.
struct TrainedParts {
  const core::Damgn* damgn = nullptr;
  const Tensor* memories = nullptr;
  bool is_rnn = false;
};

TrainedParts PartsOf(const models::ForecastingModel& model) {
  TrainedParts parts;
  if (const auto* rnn = dynamic_cast<const models::RnnModel*>(&model)) {
    parts = {rnn->damgn(), &rnn->entity_memories(), true};
  } else if (const auto* tcn = dynamic_cast<const models::TcnModel*>(&model)) {
    parts = {tcn->damgn(), &tcn->entity_memories(), false};
  }
  if (parts.damgn == nullptr) Usage("layer replays need a D-DA model");
  return parts;
}

/// Replays the trained model's layers standalone at batch size `batch`.
/// With `grad` each replay times forward plus backward (training);
/// otherwise no-grad forwards (serving).
LayerCosts ReplayLayers(const models::ForecastingModel& model, int64_t batch,
                        bool grad, int reps) {
  const models::ModelSizing sz = Sizing();
  const int64_t n = kEntities;
  const int64_t hops = sz.max_hops;
  const int64_t num_supports = 2 * hops;
  const TrainedParts trained = PartsOf(model);
  const core::Damgn& damgn = *trained.damgn;
  const int64_t hist = sz.history;
  const int64_t horizon = sz.horizon;
  Rng rng(kModelSeed);
  std::optional<ag::NoGradGuard> no_grad;
  if (!grad) no_grad.emplace();
  LayerCosts c;

  ag::Variable memory = GradLeaf(*trained.memories, grad);
  // DAMGN input: one timestamp per step (RNN) or every timestamp folded into
  // the batch (TCN).
  const int64_t damgn_batch = trained.is_rnn ? batch : batch * hist;
  const ag::Variable signal = ag::Variable::Leaf(
      Tensor::Randn({damgn_batch, n, damgn.in_channels()}, rng), false);
  c.static_mix = TimeMs(reps, [&] { BackwardFrom({damgn.StaticMix()}); });
  c.supports = TimeMs(reps, [&] {
    BackwardFrom(SupportOutputs(damgn.CombinedSupports(signal, static_cast<int>(hops), true)));
  });
  const std::vector<graph::Support> supports = DetachSupports(
      damgn.CombinedSupports(signal, static_cast<int>(hops), true), grad);
  const auto apply_all = [&](int64_t width) {
    double total = 0.0;
    const ag::Variable x =
        GradLeaf(Tensor::Randn({damgn_batch, n, width}, rng), grad);
    for (const graph::Support& s : supports) {
      total += TimeMs(reps, [&] { BackwardFrom({graph::ApplySupport(s, x)}); });
    }
    return total;
  };

  if (trained.is_rnn) {
    const int64_t hidden = sz.rnn_hidden_dfgn;
    const int64_t steps = hist + horizon;  // cell calls per layer per forward
    for (int64_t layer = 0; layer < sz.num_layers; ++layer) {
      core::GruCellConfig cfg;
      cfg.num_entities = n;
      cfg.in_channels = layer == 0 ? 1 : hidden;
      cfg.hidden = hidden;
      cfg.num_supports = num_supports;
      cfg.use_dfgn = true;
      cfg.dfgn_hidden1 = sz.dfgn_hidden1;
      cfg.dfgn_hidden2 = sz.dfgn_hidden2;
      core::EnhanceGruCell cell(cfg, &memory, rng);
      // Encoder and decoder cells of a layer share this configuration.
      c.dfgn += 2 * TimeMs(reps, [&] {
        const core::EnhanceGruCell::Filters f = cell.GenerateFilters();
        BackwardFrom({f.w_ru, f.w_c});
      });
      const core::EnhanceGruCell::Filters generated = cell.GenerateFilters();
      const core::EnhanceGruCell::Filters filters = {
          GradLeaf(generated.w_ru.data(), grad), GradLeaf(generated.w_c.data(), grad)};
      const ag::Variable x = GradLeaf(Tensor::Randn({batch, n, cfg.in_channels}, rng), grad);
      const ag::Variable h = GradLeaf(Tensor::Randn({batch, n, hidden}, rng), grad);
      c.cell += steps * TimeMs(reps, [&] {
        BackwardFrom({cell.Forward(x, h, supports, filters)});
      });
      // Two support mixes per cell call, over [x ‖ h] and [x ‖ r⊙h].
      c.apply += 2 * steps * apply_all(cfg.in_channels + hidden);
    }
    c.dfgn_calls = 2 * sz.num_layers;
    c.cell_calls = steps * sz.num_layers;
    c.apply_calls = 2 * num_supports * c.cell_calls;
    c.supports *= steps;
    c.static_mix *= steps;
    c.supports_calls = c.static_mix_calls = steps;
  } else {
    const int64_t channels = sz.tcn_channels_dfgn;
    const int64_t layers = static_cast<int64_t>(sz.dilations.size());
    ag::Variable x = GradLeaf(Tensor::Randn({batch, n, hist, channels}, rng), grad);
    for (int64_t l = 0; l < layers; ++l) {
      core::TcnLayerConfig cfg;
      cfg.num_entities = n;
      cfg.in_channels = channels;
      cfg.conv_channels = channels;
      cfg.skip_channels = sz.skip_channels;
      cfg.kernel_size = sz.kernel_size;
      cfg.dilation = sz.dilations[static_cast<size_t>(l)];
      cfg.num_supports = num_supports;
      cfg.use_dfgn = true;
      cfg.dfgn_hidden1 = sz.dfgn_hidden1;
      cfg.dfgn_hidden2 = sz.dfgn_hidden2;
      cfg.dropout = sz.dropout;
      cfg.compute_residual = l + 1 < layers;
      cfg.skip_last_only = true;
      core::EnhanceTcnLayer layer(cfg, &memory, rng);
      layer.SetTraining(grad);
      Rng dropout_rng(5);
      c.cell += TimeMs(reps, [&] {
        const core::EnhanceTcnLayer::Output out = layer.Forward(x, supports, dropout_rng);
        BackwardFrom({out.residual, out.skip});
      });
    }
    core::Dfgn dfgn(sz.memory_dim, sz.dfgn_hidden1, sz.dfgn_hidden2,
                    sz.kernel_size * channels * 2 * channels, rng);
    c.dfgn = layers * TimeMs(reps, [&] { BackwardFrom({dfgn.Generate(memory)}); });
    c.apply = layers * apply_all(channels);
    c.dfgn_calls = c.cell_calls = layers;
    c.apply_calls = num_supports * layers;
    c.supports_calls = c.static_mix_calls = 1;
    c.cell_includes_dfgn = true;
  }
  return c;
}

// --- output ------------------------------------------------------------------

class JsonObject {
 public:
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : -1.0);
    Raw(key, buf);
  }
  void Add(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void AddBool(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Run(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);

  // Set-up, repeated: the last repetition's world is the one measured.
  std::vector<double> setup_s;
  World world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world = World();
    const Clock::time_point start = Clock::now();
    world = SetUp(o);
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  const Problem& p = *world.problem;

  TrainResult train = RunTraining(o, world);

  // Layer replays at the training shapes (traced runs only).
  LayerCosts train_layers;
  if (o.trace) {
    runtime::RuntimeContext::Bind bind(*world.trainee.context);
    train_layers = ReplayLayers(*world.trainee.model, kBatch, /*grad=*/true, 5);
  }

  // Publish the trained weights and serve them.
  world.trainee.model->SetTraining(false);
  const Clock::time_point publish_start = Clock::now();
  world.session = Publish(o, p, *world.trainee.model);
  const double publish_ms = MsSince(publish_start);
  serve::MicroBatcherConfig batcher_config;
  batcher_config.max_batch_size = kMaxServeBatch;
  batcher_config.slo_ms = o.w.slo_ms;
  serve::MicroBatcher batcher(world.session.get(), batcher_config);

  std::vector<Tensor> windows;
  for (int64_t i = 0; i < p.test->num_windows(); ++i) {
    windows.push_back(RawWindow(p, *p.test, i));
  }
  Rng arrival_rng(o.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<int64_t> order(windows.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[arrival_rng.UniformInt(i + 1)]);
  }
  size_t cursor = 0;
  for (int i = 0; i < 8; ++i) {  // warm the batcher's forward-time reserve
    serve::PredictRequest request;
    request.history = windows[order[cursor++ % order.size()]];
    request.deadline_ms = o.w.slo_ms;
    serve::PredictResponse response;
    batcher.Predict(request, &response);
  }
  std::vector<Request> low_requests =
      Schedule(o.w.low_rps, o.low_seconds * 1000.0, order, &cursor, arrival_rng);
  std::vector<Request> high_requests =
      Schedule(o.w.high_rps, o.high_seconds * 1000.0, order, &cursor, arrival_rng);
  PhaseResult low = RunPhase(o, world, batcher, windows, std::move(low_requests));
  world.session->context().allocator().ResetStats();
  PhaseResult high = RunPhase(o, world, batcher, windows, std::move(high_requests));
  const AllocatorStats serve_alloc = world.session->context().allocator().GetStats();
  const double reserve_ms =
      obs::Registry::Global().GetGauge("serve.batcher.deadline.reserve_ms")->Get();

  const int64_t serve_failed = VerifyServed(world, windows, {&low, &high});

  // ----- end-to-end metrics -----
  std::vector<double> step_ms;
  std::vector<double> step_plain_ms, step_profiled_ms;
  for (size_t i = 0; i < train.steps.size(); ++i) {
    step_ms.push_back(train.steps[i].total);
    (train.profiled[i] ? step_profiled_ms : step_plain_ms).push_back(train.steps[i].total);
  }
  const auto latencies = [](const PhaseResult& ph) {
    std::vector<double> v;
    for (const Request& r : ph.requests) v.push_back(r.latency_ms);
    return v;
  };
  int64_t in_slo = 0;
  for (const Request& r : high.requests) {
    if (r.ok && r.latency_ms <= o.w.slo_ms) ++in_slo;
  }
  const int64_t attempted = static_cast<int64_t>(train.steps.size()) +
                            static_cast<int64_t>(low.requests.size() + high.requests.size());
  const int64_t failed = train.bad_losses + serve_failed;

  JsonObject e2e;
  e2e.Add("setup_s", Median(setup_s));
  e2e.Add("peak_rss_mb", PeakRssMb());
  e2e.Add("train_step_ms.p50", Median(step_ms));
  e2e.Add("train_step_ms.p90", Percentile(step_ms, 0.9));
  e2e.Add("train_windows_per_s",
          static_cast<double>(train.steps.size() * kBatch) / (Sum(step_ms) / 1000.0));
  // Steps to the target times the median step: a burst of host noise in the
  // first steps would otherwise dominate a sum of a few seconds.
  e2e.Add("time_to_target_s", train.steps_to_target * Median(step_ms) / 1000.0);
  e2e.Add("val_mae", train.evals.back().mae);
  e2e.Add("eval_windows_per_s",
          static_cast<double>(train.eval_windows) / (train.eval_forward_ms / 1000.0));
  e2e.Add("serve_low.p50_ms", Percentile(latencies(low), 0.5));
  e2e.Add("serve_low.p95_ms", Percentile(latencies(low), 0.95));
  e2e.Add("serve_high.p50_ms", Percentile(latencies(high), 0.5));
  e2e.Add("serve_high.p95_ms", Percentile(latencies(high), 0.95));
  // Per second of offered load: requests finishing after the phase missed
  // the SLO anyway, so the nominal duration is the stable denominator.
  e2e.Add("serve_high.goodput_wps", static_cast<double>(in_slo) / o.high_seconds);

  // ----- per-layer metrics -----
  JsonObject layers;
  double rows_vs_step_pct = 0.0;
  double train_other_pct = 0.0;
  double serve_other_pct = 0.0;
  if (o.trace) {
    const auto column = [&](double StepTimes::*field) {
      std::vector<double> v;
      for (const StepTimes& s : train.steps) v.push_back(s.*field);
      return Median(v);
    };
    const double fwd = column(&StepTimes::forward);
    const double bwd = column(&StepTimes::backward);
    const double clip = column(&StepTimes::clip);
    const double adam = column(&StepTimes::adam);
    const double make_batch = column(&StepTimes::make_batch);
    const double steps = static_cast<double>(train.steps.size());
    const double profiled = static_cast<double>(step_profiled_ms.size());
    layers.Add("models.forward_ms", fwd);
    layers.Add("autograd.backward_ms", bwd);
    layers.Add("autograd.graph_nodes", static_cast<double>(train.graph_nodes));
    layers.Add("optim.clip_ms", clip);
    layers.Add("optim.adam_ms", adam);
    layers.Add("data.make_batch_ms", make_batch);
    layers.Add("train.eval_forward_ms",
               train.eval_forward_ms / static_cast<double>(train.eval_forwards));
    layers.Add("train.steps_to_target", train.steps_to_target);
    layers.Add("core.dfgn.generate_ms", train_layers.dfgn);
    layers.Add("core.dfgn.calls", static_cast<double>(train_layers.dfgn_calls));
    layers.Add("core.damgn.static_mix_ms", train_layers.static_mix);
    layers.Add("core.damgn.static_mix.calls", static_cast<double>(train_layers.static_mix_calls));
    layers.Add("core.damgn.supports_ms", train_layers.supports);
    layers.Add("core.damgn.supports.calls", static_cast<double>(train_layers.supports_calls));
    layers.Add("graph.apply_ms", train_layers.apply);
    layers.Add("graph.apply.calls", static_cast<double>(train_layers.apply_calls));
    layers.Add("core.cell_ms", train_layers.cell);
    layers.Add("core.cell.calls", static_cast<double>(train_layers.cell_calls));
    // Attribution: the replayed rows against the measured forward + backward
    // they stand for.
    const double other = fwd + bwd - train_layers.SelfSum();
    train_other_pct = 100.0 * other / (fwd + bwd);
    layers.Add("models.forward.other_ms", other);
    layers.Add("models.forward.other_pct", train_other_pct);
    // Stopwatch sanity: the step's timed parts against the whole step.
    const double rows = make_batch + fwd + bwd + clip + adam;
    rows_vs_step_pct = 100.0 * (rows - Median(step_ms)) / Median(step_ms);
    layers.Add("trace.rows_vs_step_pct", rows_vs_step_pct);
    layers.Add("trace.overhead_ms", Median(step_profiled_ms) - Median(step_plain_ms));
    layers.Add("runtime.alloc.misses_per_step",
               static_cast<double>(train.alloc.pool_misses + train.alloc.oversize) / steps);
    layers.Add("runtime.alloc.hit_rate", train.alloc.HitRate());
    layers.Add("runtime.alloc.bytes_high_water", static_cast<double>(train.alloc.bytes_high_water));
    layers.Add("tensor.gemm.flops_per_step", static_cast<double>(train.gemm_flops) / profiled);
    layers.Add("tensor.batch_gemm.flops_per_step",
               static_cast<double>(train.batch_gemm_flops) / profiled);

    // Serving rows.
    const auto mean_latency = [](const serve::Stats& s) {
      return s.latency_count > 0 ? s.total_latency_ms / static_cast<double>(s.latency_count) : 0.0;
    };
    layers.Add("serve.publish_ms", publish_ms);
    layers.Add("serve.session.forward_ms", mean_latency(high.session));
    layers.Add("serve.batcher.queue_wait_ms",
               mean_latency(high.batcher) - mean_latency(high.session));
    layers.Add("serve.batcher.occupancy", high.batcher.mean_batch_occupancy());
    layers.Add("serve.batcher.deadline_miss", static_cast<double>(high.batcher.deadline_miss));
    layers.Add("serve.batcher.flush_budget", static_cast<double>(high.batcher.flush_budget));
    layers.Add("serve.batcher.flush_full", static_cast<double>(high.batcher.flush_full));
    layers.Add("serve.batcher.reserve_ms", reserve_ms);
    layers.Add("serve.low.occupancy", low.batcher.mean_batch_occupancy());
    std::vector<double> late;
    for (const PhaseResult* ph : {&low, &high}) {
      for (const Request& r : ph->requests) late.push_back(r.late_ms);
    }
    layers.Add("serve.generator.late_ms.p95", Percentile(late, 0.95));
    layers.Add("serve.alloc.misses_per_request",
               static_cast<double>(serve_alloc.pool_misses + serve_alloc.oversize) /
                   static_cast<double>(std::max<size_t>(high.requests.size(), 1)));

    // No-grad replays at B=1 and at the realized high-rate occupancy.
    runtime::RuntimeContext::Bind bind(world.session->context());
    const int64_t occupancy = std::clamp<int64_t>(
        std::llround(high.batcher.mean_batch_occupancy()), 1, kMaxServeBatch);
    serve::PredictRequest request;
    request.history = windows[0];
    const double forward_b1 = TimeMs(10, [&] {
      serve::PredictResponse response;
      world.session->Predict(request, &response);
    });
    for (const auto& [prefix, b] : {std::pair<std::string, int64_t>{"serve.b1.", 1},
                                    std::pair<std::string, int64_t>{"serve.bocc.", occupancy}}) {
      const LayerCosts s = ReplayLayers(*world.trainee.model, b, /*grad=*/false, 10);
      layers.Add(prefix + "batch", static_cast<double>(b));
      layers.Add(prefix + "core.dfgn.generate_ms", s.dfgn);
      layers.Add(prefix + "core.damgn.static_mix_ms", s.static_mix);
      layers.Add(prefix + "core.damgn.supports_ms", s.supports);
      layers.Add(prefix + "graph.apply_ms", s.apply);
      layers.Add(prefix + "core.cell_ms", s.cell);
      if (b == 1) {
        const double other = forward_b1 - s.SelfSum();
        serve_other_pct = 100.0 * other / forward_b1;
        layers.Add("serve.b1.models.forward.other_ms", other);
        layers.Add("serve.b1.models.forward.other_pct", serve_other_pct);
      }
    }
    layers.Add("serve.b1.forward_ms", forward_b1);
  }

  JsonObject checks;
  checks.AddBool("losses_finite", train.bad_losses == 0);
  checks.AddBool("forecasts_match", serve_failed == 0);
  checks.AddBool("target_reached", train.target_reached);
  if (o.trace) {
    checks.AddBool("train_rows_attribute_step",
                   std::fabs(train_other_pct) <= kAttributionTolerancePct);
    checks.AddBool("serve_rows_attribute_forward",
                   std::fabs(serve_other_pct) <= kAttributionTolerancePct);
    checks.AddBool("stopwatch_sums_to_step",
                   std::fabs(rows_vs_step_pct) <= kStopwatchTolerancePct);
  }

  // What ran: the workload's frozen parameters and the derived run lengths.
  JsonObject info;
  info.Add("workload", std::string(o.w.name));
  info.Add("model", std::string(o.w.model));
  info.Add("topk", static_cast<double>(o.w.topk));
  info.Add("target_mae", o.w.target_mae);
  info.Add("slo_ms", o.w.slo_ms);
  info.Add("low_rps", o.w.low_rps);
  info.Add("high_rps", o.w.high_rps);
  info.Add("low_seconds", o.low_seconds);
  info.Add("high_seconds", o.high_seconds);
  info.Add("seed", static_cast<double>(o.seed));
  info.Add("build_type", std::string(PERFBENCH_BUILD_TYPE));
  info.Add("compute_threads",
           static_cast<double>(runtime::RuntimeContext::Default().exec().num_threads.load()));
  info.Add("client_threads", static_cast<double>(o.clients));
  info.Add("train_steps", static_cast<double>(train.steps.size()));
  info.Add("low_requests", static_cast<double>(low.requests.size()));
  info.Add("high_requests", static_cast<double>(high.requests.size()));
  info.Add("fail_frac", static_cast<double>(failed) / static_cast<double>(attempted));
  {
    std::string steps = "[";
    for (const double ms : step_ms) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.2f", steps.size() > 1 ? ", " : "", ms);
      steps += buf;
    }
    info.Raw("step_ms", steps + "]");
  }
  {
    std::string curve = "[";
    for (const EvalPoint& e : train.evals) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s[%lld, %.3f, %.5f]", curve.size() > 1 ? ", " : "",
                    static_cast<long long>(e.step), e.train_ms / 1000.0, e.mae);
      curve += buf;
    }
    info.Raw("val_curve", curve + "]");
  }

  JsonObject out;
  out.Raw("metrics", e2e.str());
  out.Raw("layers", layers.str());
  out.Raw("checks", checks.str());
  out.Raw("info", info.str());
  out.Add("attempted", static_cast<double>(attempted));
  out.Add("failed", static_cast<double>(failed));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace enhancenet

int main(int argc, char** argv) { return enhancenet::perfbench::Run(argc, argv); }
