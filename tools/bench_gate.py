#!/usr/bin/env python3
"""Perf gates over the BENCH_*.json results that `PERF=1 tools/check.sh`
replays.

Each gate reads the fresh result a bench just wrote into the build
directory and the committed baseline in the repository root, and holds
both to the same recorded floors and bars, so a re-recording can never
quietly lower them:

  tools/bench_gate.py executor  FRESH COMMITTED  # BENCH_executor.json
  tools/bench_gate.py kernels   FRESH COMMITTED  # BENCH_kernels.json
  tools/bench_gate.py autotune  FRESH COMMITTED  # BENCH_autotune.json
  tools/bench_gate.py linkfault FRESH COMMITTED  # BENCH_linkfault.json

Exit status 0 when the gate holds; otherwise the reason is printed and the
status is 1. The absolute floors were recorded on a 4-core x86-64 host
with AVX-512 (VPOPCNTDQ), RelWithDebInfo build; CHANGES.md lists the runs
they come from.
"""
import json
import sys

# Executor: median images/s of the ready-queue engine over the bench's
# in-process repeats, per ablation chain. 0.8x the lowest median of 20
# runs (shallow 2853, deep 930). The pool spans every core, so a busy
# neighbour on a shared host moves these medians by up to 5x (shallow
# read 2853-16051 across the 20 runs); the floors catch a collapse, not
# a drift.
EXECUTOR_FLOORS = {"shallow": 2250.0, "deep": 740.0}

# Conv datapath: packed+SIMD images/s per cell, each at least 0.8x the
# single recording of the five cells taken before the scalar re-pack arm
# was deleted (2158.85, 1907.41, 1016.39, 48.09, 69.02 images/s).
KERNEL_FLOORS = {
    "in_bits_1": 1730.0,
    "in_bits_2": 1530.0,
    "in_bits_8": 815.0,
    "resnet18_conv_0": 38.5,
    "alexnet_conv_0": 55.5,
}
# Live geomean of packed+SIMD over packed at scalar dispatch on the three
# mid-network cells: 0.7x the same recording's 4.91x.
KERNEL_SIMD_BAR = 3.4
# Pool kernel: median ms per image on ResNet-18's maxpool_2 geometry
# (112x112x64, k3 s2 p1, 2-bit codes), single kernel, one thread, held to
# a ceiling (lower is better). The row-streaming kernel's recording read
# 1.65 ms (runs 1.15-1.69); the per-value scanner ring and window gather
# it replaced took 15.5-17.0 ms on the same geometry and host.
POOL_CEILINGS_MS = {"resnet18_maxpool_2": 3.0}


def fail(msg):
    print(f"perf gate: {msg}")
    sys.exit(1)


def gate_executor(docs):
    for name, doc in docs:
        medians = {c["chain"]: c["median_images_per_second"]
                   for c in doc["chains"]}
        for chain, floor in EXECUTOR_FLOORS.items():
            ips = medians.get(chain)
            if ips is None:
                fail(f"{name} BENCH_executor.json has no {chain!r} chain")
            print(f"executor {chain} ({name}): median {ips:.0f} images/s, "
                  f"floor {floor:.0f}")
            if ips < floor:
                fail(f"{name} executor {chain}-chain median below its floor")
    print("perf gate: executor chains hold their floors")


def gate_kernels(docs):
    for name, doc in docs:
        cells = {c["name"]: c for c in doc["cells"]}
        for cell, floor in KERNEL_FLOORS.items():
            if cell not in cells:
                fail(f"{name} BENCH_kernels.json has no {cell!r} cell")
            ips = cells[cell]["packed_simd_ips"]
            print(f"conv {cell} ({name}): packed+simd {ips:.1f} images/s, "
                  f"floor {floor:.1f}")
            if ips < floor:
                fail(f"{name} packed+SIMD conv {cell} below its floor")
        ratio = doc["geomean_simd_vs_scalar"]
        print(f"conv simd/scalar geomean ({name}): {ratio:.2f}x, "
              f"bar {KERNEL_SIMD_BAR:.2f}x")
        if ratio < KERNEL_SIMD_BAR:
            fail(f"{name} SIMD conv speedup over scalar dispatch below bar")
        pools = {c["name"]: c for c in doc.get("pool_cells", [])}
        for cell, ceiling in POOL_CEILINGS_MS.items():
            if cell not in pools:
                fail(f"{name} BENCH_kernels.json has no {cell!r} pool cell")
            ms = pools[cell]["ms_per_image"]
            print(f"pool {cell} ({name}): {ms:.2f} ms/image, "
                  f"ceiling {ceiling:.2f}")
            if ms > ceiling:
                fail(f"{name} pool kernel {cell} above its ceiling")
    print("perf gate: packed conv datapath and pool kernel hold their bars")


def gate_autotune(docs):
    (_, fresh), (_, base) = docs
    if not base["pass"]:
        fail("committed BENCH_autotune.json does not meet the recorded bar "
             "(pass != true) — re-record it")
    floor = 0.85 * min(base["throughput_ratio"], 1.0)
    print(f"autotune capacity ratio: fresh {fresh['throughput_ratio']:.3f}, "
          f"baseline {base['throughput_ratio']:.3f}, floor {floor:.3f}")
    if fresh["throughput_ratio"] < floor:
        fail("tuned-vs-default serving capacity collapsed vs "
             "BENCH_autotune.json")
    print("perf gate: autotuned plan holds its recorded margin")


def gate_linkfault(docs):
    for name, doc in docs:
        if not doc["zero_lost"]:
            fail(f"{name} BENCH_linkfault.json lost requests through the "
                 "link death")
        if not doc["failover_observed"]:
            fail(f"{name} BENCH_linkfault.json never observed the "
                 "degraded-plan failover")
        if doc["degraded_over_healthy"] < 0.70:
            fail(f"{name} degraded/healthy throughput "
                 f"{doc['degraded_over_healthy']:.2f} below the 0.70 bar")
    (_, fresh), (_, base) = docs
    print(f"link-fault ratio: fresh {fresh['degraded_over_healthy']:.2f}, "
          f"committed {base['degraded_over_healthy']:.2f} (bar: >= 0.70, "
          "zero lost, failover observed)")
    print("perf gate: serving degrades through link death, never collapses")


GATES = {
    "executor": gate_executor,
    "kernels": gate_kernels,
    "autotune": gate_autotune,
    "linkfault": gate_linkfault,
}


def main(argv):
    if len(argv) != 4 or argv[1] not in GATES:
        print(__doc__)
        return 2
    docs = [("fresh", json.load(open(argv[2]))),
            ("committed", json.load(open(argv[3])))]
    GATES[argv[1]](docs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
