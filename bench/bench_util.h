// Shared helpers for the benchmark harness. Every bench regenerates one
// table or figure from the paper's evaluation section and prints the same
// rows/series the paper reports, with the paper's own numbers alongside
// where the text states them (marked "paper"). Our side always comes from
// the models — never from hard-coded constants.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "io/table.h"
#include "models/zoo.h"
#include "nn/pipeline.h"

namespace qnn::bench {

inline void heading(const std::string& title, const std::string& subtitle) {
  std::cout << "\n=== " << title << " ===\n" << subtitle << "\n\n";
}

/// Print the table; when QNN_CSV_DIR is set, also save it as
/// $QNN_CSV_DIR/<name>.csv for plotting.
inline void emit(const Table& t, const std::string& name) {
  t.print(std::cout);
  const char* dir = std::getenv("QNN_CSV_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  if (t.save_csv(path)) {
    std::cout << "(csv written to " << path << ")\n";
  } else {
    std::cout << "(could not write " << path << ")\n";
  }
}

/// Save a BENCH_*.json result as $QNN_CSV_DIR/<file>, or, when that is
/// unset, in the bench's own build directory, so a run from the repository
/// root never overwrites a committed baseline. Reports where it went.
inline void write_json(const std::string& file, const std::string& json) {
  const char* dir = std::getenv("QNN_CSV_DIR");
  const std::string path =
      std::string(dir != nullptr ? dir : QNN_BENCH_BUILD_DIR) + "/" + file;
  std::ofstream jf(path);
  if (jf && (jf << json)) {
    std::cout << "(json written to " << path << ")\n";
  } else {
    std::cout << "(could not write " << path << ")\n";
  }
}

/// The paper's five evaluation workloads (§IV-B1 / Fig 5).
struct Workload {
  std::string label;
  std::string dataset;
  NetworkSpec spec;
};

inline std::vector<Workload> paper_workloads() {
  return {
      {"VGG-like 32x32", "CIFAR-10", models::vgg_like(32, 10, 2)},
      {"VGG-like 96x96", "STL-10", models::vgg_like(96, 10, 2)},
      {"VGG-like 144x144", "STL-10 resized", models::vgg_like(144, 10, 2)},
      {"AlexNet 224x224", "ImageNet", models::alexnet(224, 1000, 2)},
      {"ResNet-18 224x224", "ImageNet", models::resnet18(224, 1000, 2)},
  };
}

}  // namespace qnn::bench
