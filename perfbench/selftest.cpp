// Self-tests of the benchmark's own code: the percentile helper, seed
// determinism of the generated inputs, and bit-exactness of isolated
// chain-segment runs against the reference executor. Exit code 0 iff
// every check passes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "models/zoo.h"
#include "nn/reference.h"
#include "serve/load_generator.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using qnn::bench::nearest_rank;

void test_nearest_rank() {
  // The textbook nearest-rank example: 15 20 35 40 50.
  const std::vector<double> v = {50, 15, 40, 20, 35};
  check(nearest_rank(v, 5, 0) == 15.0, "p5 of 5 values is the minimum");
  check(nearest_rank(v, 30, 0) == 20.0, "p30 -> rank 2");
  check(nearest_rank(v, 40, 0) == 20.0, "p40 -> rank 2 (exact rank)");
  check(nearest_rank(v, 50, 0) == 35.0, "p50 -> rank 3");
  check(nearest_rank(v, 100, 0) == 50.0, "p100 is the maximum");
  check(qnn::bench::median({4, 1, 3, 2}) == 2.0, "even-sized median is the lower middle");

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  check(nearest_rank(ramp, 99) == 990.0, "p99 of 1..1000 is 990");
  check(nearest_rank(ramp, 50) == 500.0, "p50 of 1..1000 is 500");
  ramp.pop_back();
  check(!nearest_rank(ramp, 99).has_value(),
        "p99 of 999 samples is refused (9 beyond it)");
  check(!nearest_rank({}, 50).has_value(), "empty sample has no percentile");
}

void test_seed_determinism() {
  const auto a = qnn::poisson_arrivals_us(320.0, 500, 7);
  const auto b = qnn::poisson_arrivals_us(320.0, 500, 7);
  const auto c = qnn::poisson_arrivals_us(320.0, 500, 8);
  check(a == b, "a seed always yields the same arrival schedule");
  check(a != c, "another seed yields another schedule");

  const qnn::Pipeline p = qnn::expand(qnn::models::vgg_like(32, 10, 2));
  check(qnn::bench::make_images(p, 4, 7) == qnn::bench::make_images(p, 4, 7),
        "a seed always yields the same images");
  check(qnn::bench::make_images(p, 4, 7) != qnn::bench::make_images(p, 4, 8),
        "another seed yields other images");
  const qnn::NetworkParams x = qnn::bench::make_params(p, 7);
  const qnn::NetworkParams y = qnn::bench::make_params(p, 7);
  const qnn::NetworkParams z = qnn::bench::make_params(p, 8);
  bool same = x.convs.size() == y.convs.size();
  bool differs = false;
  for (std::size_t i = 0; same && i < x.convs.size(); ++i) {
    const auto& wx = x.convs[i].weights;
    for (int o = 0; o < wx.shape().out_c; ++o) {
      same = same && wx.filter(o) == y.convs[i].weights.filter(o);
      differs = differs || !(wx.filter(o) == z.convs[i].weights.filter(o));
    }
  }
  check(same, "a seed always yields the same parameters");
  check(differs, "another seed yields other parameters");
}

void test_segments(const qnn::NetworkSpec& spec, int min_segments) {
  const qnn::Pipeline p = qnn::expand(spec);
  const qnn::NetworkParams params = qnn::bench::make_params(p, 3);
  const auto images = qnn::bench::make_images(p, 3, 3);
  const qnn::ReferenceExecutor ref(p, params);
  const auto nodes = ref.run_all(images.front());
  const auto ranges = qnn::bench::chain_segments(p);
  qnn::bench::Tracer tracer(false);
  const auto run =
      qnn::bench::run_segments(p, params, ranges, images, nodes, 2, tracer);
  bool exact = true;
  for (const auto& s : run.segments) exact = exact && s.exact;
  check(static_cast<int>(ranges.size()) >= min_segments,
        spec.name + ": " + std::to_string(ranges.size()) + " chain segments");
  check(exact, spec.name + ": every isolated segment is bit-exact against "
                           "ReferenceExecutor::run_all at its last node");
  bool chain = true;
  for (std::size_t i = 0; i < images.size(); ++i) {
    chain = chain && run.outputs[i] == ref.run(images[i]);
  }
  check(chain, spec.name + ": the segment chain reproduces the logits");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_seed_determinism();
  // A pure chain splits into single kernels; residual blocks stay whole.
  const qnn::Pipeline vgg = qnn::expand(qnn::models::vgg_like(32, 10, 2));
  test_segments(qnn::models::vgg_like(32, 10, 2), vgg.size());
  test_segments(qnn::models::resnet18(32, 10, 2), 8);
  test_segments(qnn::models::alexnet(64, 10, 2), 8);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
