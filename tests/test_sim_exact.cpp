// Exactness of the cycle simulator: digests of full SimResults (every
// KernelStats and FifoStats field, plus the total, first-image and interval
// cycles) for the paper networks under a spread of configurations. The
// golden values were recorded from the reference per-cycle loop that stepped
// every kernel on every clock; the event-driven scheduler must reproduce
// each one bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "partition/partitioner.h"
#include "sim/cycle_model.h"

namespace qnn {
namespace {

/// FNV-1a over every field of a SimResult.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const SimResult& r) {
  Digest d;
  d.add(r.total_cycles);
  d.add(r.first_image_cycles);
  d.add(r.steady_interval);
  d.add(static_cast<std::uint64_t>(r.images));
  d.add(static_cast<std::uint64_t>(r.kernels.size()));
  for (const KernelStats& k : r.kernels) {
    d.add(k.name);
    d.add(k.busy);
    d.add(k.stall_in);
    d.add(k.stall_out);
    d.add(k.outputs);
    d.add(k.retransmits);
  }
  d.add(static_cast<std::uint64_t>(r.fifos.size()));
  for (const FifoStats& f : r.fifos) {
    d.add(f.name);
    d.add(f.capacity);
    d.add(f.max_occupancy);
    d.add(f.total_values);
  }
  return d.value();
}

struct Golden {
  const char* net;
  const char* config;
  int images;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"tiny", "default", 2, 0xa7b32cb75bc704adULL},
    {"tiny", "default", 3, 0x23b1f71a331f6278ULL},
    {"tiny", "fifo2", 2, 0xb344c4e7140903d1ULL},
    {"tiny", "fifo2", 3, 0x66fed7943fef277bULL},
    {"tiny", "weight_stream", 2, 0xaf6d744a0551ea76ULL},
    {"tiny", "weight_stream", 3, 0x9222193703db8315ULL},
    {"tiny", "datapath64", 2, 0x6c6fbdee6dc64587ULL},
    {"tiny", "datapath64", 3, 0x16faeb6c866a4814ULL},
    {"tiny", "optimal_cut", 2, 0xa7b32cb75bc704adULL},
    {"tiny", "optimal_cut", 3, 0x23b1f71a331f6278ULL},
    {"tiny", "link3", 2, 0x6f24163a78bb9fc3ULL},
    {"tiny", "link3", 3, 0x32075d4d8548add3ULL},
    {"tiny", "burst", 2, 0x28208c08a5d8655cULL},
    {"tiny", "burst", 3, 0x2ae86c0a07c0d41bULL},
    {"tiny", "outage", 2, 0xde69c406023a9eb5ULL},
    {"tiny", "outage", 3, 0xf802caadc3709341ULL},
    {"tiny", "corrupt_outage", 2, 0xb1a6dfc6931de996ULL},
    {"tiny", "corrupt_outage", 3, 0xb7ea192e6d0cf8f7ULL},
    {"vgg16", "default", 2, 0xe14744c8be8e89f5ULL},
    {"vgg16", "default", 3, 0xb01ba616fc1e4feeULL},
    {"vgg16", "fifo2", 2, 0x8255457f7f9b3759ULL},
    {"vgg16", "fifo2", 3, 0xd7e4d1c76f18de36ULL},
    {"vgg16", "weight_stream", 2, 0x1ec8b6c8dbc94295ULL},
    {"vgg16", "weight_stream", 3, 0x57da6082ce8193e5ULL},
    {"vgg16", "datapath64", 2, 0xdc3e0a8b71dbebdfULL},
    {"vgg16", "datapath64", 3, 0x8614fb65d46c56f2ULL},
    {"vgg16", "optimal_cut", 2, 0xe14744c8be8e89f5ULL},
    {"vgg16", "optimal_cut", 3, 0xb01ba616fc1e4feeULL},
    {"vgg16", "link3", 2, 0x03cf56b942498fc9ULL},
    {"vgg16", "link3", 3, 0xcf236f62e0d5eda2ULL},
    {"vgg16", "burst", 2, 0x0b4759ca487062efULL},
    {"vgg16", "burst", 3, 0x036732691b1712afULL},
    {"vgg16", "outage", 2, 0xdf369fb5a6786a58ULL},
    {"vgg16", "outage", 3, 0xdc744632a8405f56ULL},
    {"vgg16", "corrupt_outage", 2, 0xeb7b343ae48a980eULL},
    {"vgg16", "corrupt_outage", 3, 0xb978cc0112ef8122ULL},
    {"vgg32", "default", 2, 0x85272cc77d10c430ULL},
    {"vgg32", "default", 3, 0x5caee625c6de93c3ULL},
    {"vgg32", "fifo2", 2, 0x3bc308e5970f3d68ULL},
    {"vgg32", "fifo2", 3, 0xe6f3a4434812655cULL},
    {"vgg32", "weight_stream", 2, 0x279f8bbebc162e6aULL},
    {"vgg32", "weight_stream", 3, 0x99537bb0eeeb257dULL},
    {"vgg32", "datapath64", 2, 0x0bde1d6d28f87c2cULL},
    {"vgg32", "datapath64", 3, 0x9255de2386ae4662ULL},
    {"vgg32", "optimal_cut", 2, 0x85272cc77d10c430ULL},
    {"vgg32", "optimal_cut", 3, 0x5caee625c6de93c3ULL},
    {"vgg32", "link3", 2, 0x5dd807c0fd79d553ULL},
    {"vgg32", "link3", 3, 0x877c21e8cfc8cd20ULL},
    {"vgg32", "burst", 2, 0x8266d3dcd985f42dULL},
    {"vgg32", "burst", 3, 0x5ded8a2a48fd8b38ULL},
    {"vgg32", "outage", 2, 0x4a9a230e67d568aeULL},
    {"vgg32", "outage", 3, 0xfd61f6bd46e96a11ULL},
    {"vgg32", "corrupt_outage", 2, 0xd4bb789eefa078b6ULL},
    {"vgg32", "corrupt_outage", 3, 0xfbac2a428ecef46fULL},
    {"finn_cnv", "default", 2, 0x753891278c97f33bULL},
    {"finn_cnv", "default", 3, 0x13d75a69d9a164c0ULL},
    {"finn_cnv", "fifo2", 2, 0x15d43b6d3598aea9ULL},
    {"finn_cnv", "fifo2", 3, 0x21e0409352357e01ULL},
    {"finn_cnv", "weight_stream", 2, 0x2ae7b60f9c487fb2ULL},
    {"finn_cnv", "weight_stream", 3, 0x972a361ac7336669ULL},
    {"finn_cnv", "datapath64", 2, 0x7b96423cb60851d3ULL},
    {"finn_cnv", "datapath64", 3, 0xbdf5898459565aadULL},
    {"finn_cnv", "optimal_cut", 2, 0x753891278c97f33bULL},
    {"finn_cnv", "optimal_cut", 3, 0x13d75a69d9a164c0ULL},
    {"finn_cnv", "link3", 2, 0x0dbf09d419eda83eULL},
    {"finn_cnv", "link3", 3, 0x04e4a1f394e952deULL},
    {"finn_cnv", "burst", 2, 0xf506c876a9ee72dbULL},
    {"finn_cnv", "burst", 3, 0x7e2e2efa6b5638f4ULL},
    {"finn_cnv", "outage", 2, 0x16a1d2bea262ce39ULL},
    {"finn_cnv", "outage", 3, 0x3d42e11511101591ULL},
    {"finn_cnv", "corrupt_outage", 2, 0x2578a156369df251ULL},
    {"finn_cnv", "corrupt_outage", 3, 0xe45da078b2f23d30ULL},
    {"resnet18_32", "default", 2, 0x158d00210591ec37ULL},
    {"resnet18_32", "default", 3, 0x9468f32e8e9407e2ULL},
    {"resnet18_32", "fifo2", 2, 0xd4e05786d49fe107ULL},
    {"resnet18_32", "fifo2", 3, 0x5cfdc76b56f0d3f3ULL},
    {"resnet18_32", "weight_stream", 2, 0x9d503535aff93c47ULL},
    {"resnet18_32", "weight_stream", 3, 0xa9e7a8bb4f1a80cfULL},
    {"resnet18_32", "datapath64", 2, 0x8fcd070dd74817d2ULL},
    {"resnet18_32", "datapath64", 3, 0x70b9360315f23e5aULL},
    {"resnet18_32", "optimal_cut", 2, 0x33b46be83a058b6aULL},
    {"resnet18_32", "optimal_cut", 3, 0x380acbbe443c1633ULL},
    {"resnet18_32", "link3", 2, 0x2a025b17a01ff5afULL},
    {"resnet18_32", "link3", 3, 0x641818b9cc2f9dfcULL},
    {"resnet18_32", "burst", 2, 0x21e1dda7ca1c523fULL},
    {"resnet18_32", "burst", 3, 0x03b89ffff5cb9ba8ULL},
    {"resnet18_32", "outage", 2, 0xb021de45617a48f9ULL},
    {"resnet18_32", "outage", 3, 0xe6dd4fe844c4ab52ULL},
    {"resnet18_32", "corrupt_outage", 2, 0xdcd969889f706760ULL},
    {"resnet18_32", "corrupt_outage", 3, 0x33a23acbbffaa687ULL},
    {"alexnet_64", "default", 2, 0x5698b29d0c7664c3ULL},
    {"alexnet_64", "default", 3, 0xf0307a598a918bfcULL},
    {"alexnet_64", "fifo2", 2, 0x9c97a9f67bef1fdcULL},
    {"alexnet_64", "fifo2", 3, 0x8723f74e3da7cdbaULL},
    {"alexnet_64", "weight_stream", 2, 0x4fc613b23c6ee1ddULL},
    {"alexnet_64", "weight_stream", 3, 0xa955b0e02b9427e0ULL},
    {"alexnet_64", "datapath64", 2, 0xa82513fb205304f2ULL},
    {"alexnet_64", "datapath64", 3, 0x38ee16333543dd9dULL},
    {"alexnet_64", "optimal_cut", 2, 0x850d3c36490311f9ULL},
    {"alexnet_64", "optimal_cut", 3, 0x651ffdb9f297f7e9ULL},
    {"alexnet_64", "link3", 2, 0x45e7b0f6da8d17a4ULL},
    {"alexnet_64", "link3", 3, 0x2c43171b7325282fULL},
    {"alexnet_64", "burst", 2, 0x242cfebf900de5e5ULL},
    {"alexnet_64", "burst", 3, 0x6d5f45e8e578dea3ULL},
    {"alexnet_64", "outage", 2, 0x54fa8fc1ac70df38ULL},
    {"alexnet_64", "outage", 3, 0xb5f27c947bcd5024ULL},
    {"alexnet_64", "corrupt_outage", 2, 0xc4f7f60c4147f350ULL},
    {"alexnet_64", "corrupt_outage", 3, 0x7f45917bedc98b68ULL},
    {"resnet18_224", "default", 2, 0xb52111cc7afd12eeULL},
    {"resnet18_224", "default", 3, 0x0cde5a8f72bdeaf0ULL},
    {"alexnet_224", "default", 2, 0x43977c6a0940eeefULL},
    {"alexnet_224", "default", 3, 0x374d659af2002a15ULL},
    {"resnet34_224", "default", 2, 0x0da4f9730a0eda2fULL},
    {"resnet34_224", "default", 3, 0x865f5ebfc12ce472ULL},
};
// clang-format on

struct NamedConfig {
  std::string name;
  SimConfig config;
};

/// Every edge crossing a cut placed after node `cut`, as planned bursts of
/// `pixels` pixels each.
std::vector<SimConfig::EdgeBurst> crossing_bursts(const Pipeline& p, int cut,
                                                  std::size_t pixels) {
  std::vector<SimConfig::EdgeBurst> bursts;
  for (int c = cut + 1; c < p.size(); ++c) {
    const Node& n = p.node(c);
    if (n.main_from >= 0 && n.main_from <= cut) {
      bursts.push_back({c, false,
                        pixels * static_cast<std::size_t>(
                                     p.node(n.main_from).out.c)});
    }
    if (n.skip_from >= 0 && n.skip_from <= cut && n.skip_from != n.main_from) {
      bursts.push_back({c, true,
                        pixels * static_cast<std::size_t>(
                                     p.node(n.skip_from).out.c)});
    }
  }
  return bursts;
}

std::vector<NamedConfig> configs_for(const Pipeline& p) {
  std::vector<NamedConfig> out;
  out.push_back({"default", {}});

  SimConfig shallow;
  shallow.fifo_depth = 2;
  out.push_back({"fifo2", shallow});

  SimConfig streamed;
  streamed.weight_cache_capacity_bits = 1024;
  out.push_back({"weight_stream", streamed});

  SimConfig narrow_datapath;
  narrow_datapath.datapath_bits = 64;
  out.push_back({"datapath64", narrow_datapath});

  SimConfig optimal;
  for (const CutInfo& c : partition_optimal(p).cuts) {
    optimal.cut_after_nodes.push_back(c.after_node);
  }
  out.push_back({"optimal_cut", optimal});

  const int mid = p.size() / 2;
  SimConfig link3;
  link3.cut_after_nodes = {mid};
  link3.link_bits_per_cycle = 3;
  out.push_back({"link3", link3});

  SimConfig burst;
  burst.cut_after_nodes = {mid};
  burst.link_bits_per_cycle = 12;
  burst.link_bursts = crossing_bursts(p, mid, 16);
  out.push_back({"burst", burst});

  SimConfig outage;
  outage.cut_after_nodes = {mid};
  outage.link_faults = {{/*link=*/0, /*down_from_cycle=*/400,
                         /*down_cycles=*/20'000, 0, 0}};
  out.push_back({"outage", outage});

  SimConfig corrupt;
  corrupt.cut_after_nodes = {mid};
  corrupt.fifo_depth = 8;
  corrupt.link_faults = {
      {/*link=*/0, /*down_from_cycle=*/300, /*down_cycles=*/5'000,
       /*corrupt_per_million=*/200'000, /*seed=*/42},
      {/*link=*/1, ~0ULL, 0, /*corrupt_per_million=*/100'000, /*seed=*/7}};
  out.push_back({"corrupt_outage", corrupt});
  return out;
}

const Golden* find_golden(const std::string& net, const std::string& config,
                          int images) {
  for (const Golden& g : kGolden) {
    if (net == g.net && config == g.config && images == g.images) return &g;
  }
  return nullptr;
}

void check(const std::string& net, const Pipeline& p,
           const std::vector<NamedConfig>& configs) {
  for (const NamedConfig& c : configs) {
    for (const int images : {2, 3}) {
      const std::uint64_t got = digest(simulate(p, c.config, images));
      const Golden* g = find_golden(net, c.name, images);
      char line[128];
      std::snprintf(line, sizeof line, "{\"%s\", \"%s\", %d, 0x%016llxULL},",
                    net.c_str(), c.name.c_str(), images,
                    static_cast<unsigned long long>(got));
      if (g == nullptr) {
        ADD_FAILURE() << "no golden digest; measured " << line;
        continue;
      }
      EXPECT_EQ(got, g->digest) << "measured " << line;
    }
  }
}

TEST(SimExact, Tiny) {
  const Pipeline p = expand(models::tiny(12, 4, 2));
  check("tiny", p, configs_for(p));
}

TEST(SimExact, VggLike16) {
  const Pipeline p = expand(models::vgg_like(16, 10, 2));
  check("vgg16", p, configs_for(p));
}

TEST(SimExact, VggLike32) {
  const Pipeline p = expand(models::vgg_like(32, 10, 2));
  check("vgg32", p, configs_for(p));
}

TEST(SimExact, FinnCnv) {
  const Pipeline p = expand(models::finn_cnv(10, 2));
  check("finn_cnv", p, configs_for(p));
}

TEST(SimExact, ResNet18At32) {
  const Pipeline p = expand(models::resnet18(32, 10, 2));
  check("resnet18_32", p, configs_for(p));
}

TEST(SimExact, AlexNetAt64) {
  const Pipeline p = expand(models::alexnet(64, 10, 2));
  check("alexnet_64", p, configs_for(p));
}

TEST(SimExact, PaperNetworksAt224) {
  const std::vector<NamedConfig> plain = {{"default", {}}};
  check("resnet18_224", expand(models::resnet18(224, 1000, 2)), plain);
  check("alexnet_224", expand(models::alexnet(224, 1000, 2)), plain);
  check("resnet34_224", expand(models::resnet34(224, 1000, 2)), plain);
}

}  // namespace
}  // namespace qnn
