#include "dataflow/engine.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "plan/compiled_plan.h"
#include "verify/graph_check.h"

namespace qnn {
namespace {

/// Streams the batch into the pipeline input, one image tail per ring
/// transaction — the DMA side of the depth-first pixel order (§III-B1b).
class FeederTask final : public Kernel {
 public:
  FeederTask(std::span<const IntTensor> images, Stream& out)
      : Kernel("feeder"), images_(images), out_(out) {}

  StepResult step() override {
    bool progressed = false;
    while (img_ < images_.size()) {
      const std::span<const std::int32_t> flat = images_[img_].flat();
      const std::size_t n = out_.try_push_burst(flat.subspan(pos_));
      if (n == 0) {
        if (!stall_noted_) {
          stall_noted_ = true;
          out_.note_push_stall();
        }
        return progressed ? StepResult::kProgress : StepResult::kBlocked;
      }
      stall_noted_ = false;
      progressed = true;
      pos_ += n;
      if (pos_ == flat.size()) {
        pos_ = 0;
        ++img_;
      }
    }
    out_.close();
    return StepResult::kDone;
  }

  void bind_ready(ReadyHook* hook, int task) override {
    out_.bind_producer(hook, task);
  }

 private:
  std::span<const IntTensor> images_;
  Stream& out_;
  std::size_t img_ = 0;
  std::size_t pos_ = 0;
  bool stall_noted_ = false;
};

/// Pops the output stream directly into one tensor per image, then checks
/// the end-of-stream protocol (no trailing values).
class CollectorTask final : public Kernel {
 public:
  CollectorTask(std::size_t count, Shape shape, Stream& in,
                std::vector<IntTensor>& outputs)
      : Kernel("collector"),
        count_(count),
        shape_(shape),
        in_(in),
        outputs_(outputs) {}

  StepResult step() override {
    bool progressed = false;
    while (outputs_.size() < count_) {
      if (!open_) {
        cur_ = IntTensor(shape_);
        pos_ = 0;
        open_ = true;
      }
      const std::size_t n =
          in_.try_pop_burst(cur_.flat().subspan(pos_));
      if (n == 0) {
        QNN_CHECK(!in_.drained(), "output stream ended early");
        if (!stall_noted_) {
          stall_noted_ = true;
          in_.note_pop_stall();
        }
        return progressed ? StepResult::kProgress : StepResult::kBlocked;
      }
      stall_noted_ = false;
      progressed = true;
      pos_ += n;
      if (pos_ == static_cast<std::size_t>(cur_.size())) {
        outputs_.push_back(std::move(cur_));
        open_ = false;
      }
    }
    // All images collected; any further value is a protocol error.
    std::int32_t extra = 0;
    QNN_CHECK(in_.try_pop_burst({&extra, 1}) == 0,
              "trailing values on output");
    if (in_.drained()) return StepResult::kDone;
    return progressed ? StepResult::kProgress : StepResult::kBlocked;
  }

  void bind_ready(ReadyHook* hook, int task) override {
    in_.bind_consumer(hook, task);
  }

 private:
  std::size_t count_;
  Shape shape_;
  Stream& in_;
  std::vector<IntTensor>& outputs_;
  IntTensor cur_;
  std::size_t pos_ = 0;
  bool open_ = false;
  bool stall_noted_ = false;
};

}  // namespace

Stream& StreamEngine::make_stream(std::size_t capacity, int bits,
                                  std::string name) {
  streams_.push_back(
      std::make_unique<Stream>(capacity, bits, std::move(name)));
  return *streams_.back();
}

StreamEngine::StreamEngine(const Pipeline& pipeline,
                           const NetworkParams& params, EngineOptions options)
    : pipeline_(pipeline), params_(params), options_(options) {
  QNN_CHECK(options_.burst >= 1, "burst size must be positive");
  if (options_.verify) {
    // The Maxeler toolchain rejects malformed kernel graphs at compile
    // time; this is our equivalent. Every defect the engine would hit as
    // a hang, crash or poisoned stream becomes a structured error here —
    // run it before validate() so failures carry QNN-Dxxx codes.
    enforce(verify_graph(pipeline, &params, options_), "StreamEngine");
  }
  pipeline_.validate();
  executor_ = make_ready_queue_executor(options_.pool_threads);

  // All FIFO sizing lives in the plan layer (plan/fifo_plan.h) — the same
  // plan the analyzer proves deadlock-free is the one built here, stream
  // for stream, including the per-edge burst each kernel's input side
  // moves per ring transaction (adaptive row-sized by default, capped by
  // `burst` clamped to the smallest user FIFO — QNN-D302). A pre-built
  // CompiledPlan supplies its streams verbatim; otherwise the plan is
  // derived from the options on the spot.
  const FifoPlan plan = options_.plan != nullptr
                            ? options_.plan->fifos
                            : plan_fifos(pipeline, options_);

  // Input port streams of every node, filled as edges are created, with
  // the planned burst granularity of each edge.
  const auto node_count = static_cast<std::size_t>(pipeline.size());
  std::vector<Stream*> main_in(node_count, nullptr);
  std::vector<Stream*> skip_in(node_count, nullptr);
  std::vector<Stream*> node_out(node_count, nullptr);
  std::vector<std::size_t> main_burst(node_count, plan.burst);
  std::vector<std::size_t> skip_burst(node_count, plan.burst);

  auto producer_out = [&](int p) -> Stream*& {
    return p < 0 ? input_stream_ : node_out[static_cast<std::size_t>(p)];
  };
  auto attach = [&](const PlannedStream& ps, Stream& s) {
    if (ps.to_skip_port) {
      skip_in[static_cast<std::size_t>(ps.consumer)] = &s;
      skip_burst[static_cast<std::size_t>(ps.consumer)] = ps.burst;
    } else {
      main_in[static_cast<std::size_t>(ps.consumer)] = &s;
      main_burst[static_cast<std::size_t>(ps.consumer)] = ps.burst;
    }
  };

  const std::vector<PlannedStream>& planned = plan.streams;
  for (std::size_t idx = 0; idx < planned.size(); ++idx) {
    const PlannedStream& ps = planned[idx];
    Stream& s = make_stream(ps.capacity, ps.bits, ps.name);
    switch (ps.role) {
      case PlannedStream::Role::kOutput:
        producer_out(ps.producer) = &s;
        break;
      case PlannedStream::Role::kDirect:
        producer_out(ps.producer) = &s;
        attach(ps, s);
        break;
      case PlannedStream::Role::kTrunk: {
        producer_out(ps.producer) = &s;
        // The branches of this fork follow the trunk in plan order.
        std::vector<Stream*> branches;
        while (idx + 1 < planned.size() &&
               planned[idx + 1].role == PlannedStream::Role::kBranch) {
          ++idx;
          const PlannedStream& bs = planned[idx];
          Stream& b = make_stream(bs.capacity, bs.bits, bs.name);
          attach(bs, b);
          branches.push_back(&b);
        }
        const std::string pname =
            ps.producer < 0 ? "input" : pipeline.node(ps.producer).name;
        kernels_.push_back(std::make_unique<ForkKernel>(
            "fork_" + pname, s, std::move(branches), ps.burst));
        break;
      }
      case PlannedStream::Role::kBranch:
        QNN_CHECK(false, "fork branch without a trunk in the FIFO plan");
        break;
    }
  }

  output_stream_ = node_out[static_cast<std::size_t>(pipeline.size() - 1)];
  QNN_CHECK(output_stream_ != nullptr, "output stream not wired");

  for (int i = 0; i < pipeline.size(); ++i) {
    const Node& n = pipeline.node(i);
    Stream* in = main_in[static_cast<std::size_t>(i)];
    Stream* out = node_out[static_cast<std::size_t>(i)];
    QNN_CHECK(in != nullptr && out != nullptr,
              "node " + n.name + " not fully wired");
    const std::size_t burst = main_burst[static_cast<std::size_t>(i)];
    switch (n.kind) {
      case NodeKind::Conv:
        kernels_.push_back(std::make_unique<ConvKernel>(
            n, params.conv(n).weights, *in, *out, burst));
        break;
      case NodeKind::MaxPool:
      case NodeKind::AvgPool:
        kernels_.push_back(
            std::make_unique<PoolKernel>(n, *in, *out, burst));
        break;
      case NodeKind::BnAct:
        kernels_.push_back(std::make_unique<BnActKernel>(
            n, params.bnact(n).thresholds, *in, *out, burst));
        break;
      case NodeKind::Add: {
        Stream* skip = skip_in[static_cast<std::size_t>(i)];
        QNN_CHECK(skip != nullptr, "add node " + n.name + " missing skip");
        kernels_.push_back(std::make_unique<AddKernel>(
            n, *in, *skip, *out, burst,
            skip_burst[static_cast<std::size_t>(i)]));
        break;
      }
    }
  }

  // Fault-injection sites are registered in construction order (streams in
  // plan order, then fork + node kernels), which is deterministic per
  // graph — FaultEvent::target_index is an ordinal into this order.
  if (!options_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(options_.faults,
                                                options_.fault_replica);
    for (auto& s : streams_) {
      s->set_fault(injector_->register_stream(s->name()));
    }
    for (auto& k : kernels_) {
      k->set_fault(injector_->register_kernel(k->name()));
    }
  }
}

StreamEngine::~StreamEngine() = default;

std::vector<IntTensor> StreamEngine::run(std::span<const IntTensor> images,
                                         RunStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const IntTensor& img : images) {
    QNN_CHECK(img.shape() == pipeline_.input,
              "image shape " + img.shape().str() + " != network input " +
                  pipeline_.input.str());
  }

  // The engine is reusable: each run starts from pristine streams and
  // kernels, even after a run that threw or was cancelled.
  abort_.store(false, std::memory_order_relaxed);
  for (auto& s : streams_) s->reset();
  for (auto& k : kernels_) k->reset();

  std::uint64_t fired_before = 0;
  if (injector_) {
    fired_before = injector_->fired();
    injector_->begin_run();
    if (injector_->crash_now()) {
      // Board lost before streaming anything: nothing is in flight, the
      // engine stays pristine for the next run.
      throw Error("injected fault: replica crash (run " +
                  std::to_string(injector_->runs_begun() - 1) + ")");
    }
  }

  FeederTask feeder(images, *input_stream_);
  std::vector<IntTensor> outputs;
  outputs.reserve(images.size());
  CollectorTask collector(images.size(), pipeline_.output_shape(),
                          *output_stream_, outputs);

  std::vector<Kernel*> tasks;
  tasks.reserve(kernels_.size() + 2);
  tasks.push_back(&feeder);
  for (auto& k : kernels_) tasks.push_back(k.get());
  tasks.push_back(&collector);
  executor_->run(tasks, abort_);

  if (stats != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    stats->wall_seconds = elapsed.count();
    stats->images_per_second =
        elapsed.count() > 0.0
            ? static_cast<double>(images.size()) / elapsed.count()
            : 0.0;
    stats->values_streamed = 0;
    stats->stream_transactions = 0;
    stats->push_stalls = 0;
    stats->pop_stalls = 0;
    stats->faults_injected = injector_ ? injector_->fired() - fired_before : 0;
    for (const auto& s : streams_) {
      stats->values_streamed += s->pushed();
      stats->stream_transactions += s->transactions();
      stats->push_stalls += s->push_stalls();
      stats->pop_stalls += s->pop_stalls();
    }
  }
  return outputs;
}

IntTensor StreamEngine::run_one(const IntTensor& image) {
  auto out = run(std::span<const IntTensor>(&image, 1));
  return std::move(out.front());
}

std::vector<std::pair<std::string, std::uint64_t>>
StreamEngine::stream_traffic() const {
  std::vector<std::pair<std::string, std::uint64_t>> traffic;
  traffic.reserve(streams_.size());
  for (const auto& s : streams_) {
    traffic.emplace_back(s->name(), s->pushed());
  }
  return traffic;
}

}  // namespace qnn
