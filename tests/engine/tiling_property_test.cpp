/// \file tiling_property_test.cpp
/// Property tests for the working-set-tiled batched analysis kernels:
/// over random (topology, sample-set, lane width, tile size, thread
/// count) draws — degenerate tiles included — every configuration must
/// be *bitwise* equal to the scalar eed::analyze oracle. Tiling and the
/// path-walk fast path may only change the order sections are touched,
/// never the order any reduction accumulates, so EXPECT_EQ on the raw
/// doubles is the contract, not a tolerance.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/random_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/util/worker_pool.hpp"

namespace {

using namespace relmore;
using circuit::SectionId;

/// Log-uniform per-sample perturbation of the tree's nominals; every
/// third sample pure RC so degenerate lanes share groups with
/// underdamped ones.
void draw_sample(const circuit::FlatTree& flat, std::size_t s, circuit::Rng& rng,
                 std::vector<double>& r, std::vector<double>& l, std::vector<double>& c) {
  const bool pure_rc = s % 3 == 2;
  for (std::size_t k = 0; k < flat.size(); ++k) {
    r[k] = flat.resistance()[k] * rng.log_uniform(0.25, 4.0);
    l[k] = pure_rc ? 0.0 : flat.inductance()[k] * rng.log_uniform(0.25, 4.0);
    c[k] = flat.capacitance()[k] * rng.log_uniform(0.25, 4.0);
  }
}

/// The tile sizes a draw exercises: forced single-row tiles, a random
/// interior size, tile >= n (one degenerate whole-tree tile), and 0
/// (auto — whatever util::KernelTuner picks for this shape).
std::vector<std::size_t> tile_draws(std::size_t n, circuit::Rng& rng) {
  return {std::size_t{1}, static_cast<std::size_t>(rng.uniform_int(2, static_cast<int>(n))),
          n + static_cast<std::size_t>(rng.uniform_int(0, 64)), std::size_t{0}};
}

TEST(TilingProperty, AnalyzeBitwiseEqualsScalarAcrossTilesWidthsThreads) {
  util::WorkerPool pool(3);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const circuit::RlcTree tree = circuit::make_random_tree(
        {.min_sections = 40, .max_sections = 300}, seed + 5000);
    const circuit::FlatTree flat(tree);
    const std::size_t n = flat.size();
    const std::size_t samples = 1 + (seed * 7) % 13;
    circuit::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);

    std::vector<std::vector<double>> rv(samples), lv(samples), cv(samples);
    std::vector<eed::TreeModel> truth(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      rv[s].resize(n);
      lv[s].resize(n);
      cv[s].resize(n);
      draw_sample(flat, s, rng, rv[s], lv[s], cv[s]);
      eed::analyze_values(flat, rv[s].data(), lv[s].data(), cv[s].data(), truth[s]);
    }

    const std::size_t widths[] = {1, 2, 4, 8};
    const std::size_t w = widths[seed % 4];
    engine::BatchedAnalyzer batch(flat, w);
    batch.resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
    }
    std::vector<SectionId> every(n);
    for (std::size_t k = 0; k < n; ++k) every[k] = static_cast<SectionId>(k);
    for (const std::size_t tile : tile_draws(n, rng)) {
      batch.set_tile_rows(tile);
      EXPECT_EQ(batch.tile_rows(), tile);
      for (util::WorkerPool* p :
           {static_cast<util::WorkerPool*>(nullptr), &pool}) {
        const engine::BatchedModels models = batch.analyze_nodes(every, p);
        for (std::size_t s = 0; s < samples; ++s) {
          for (std::size_t k = 0; k < n; ++k) {
            const auto id = static_cast<SectionId>(k);
            ASSERT_EQ(models.sum_rc(s, id), truth[s].at(id).sum_rc)
                << "seed " << seed << " W " << w << " tile " << tile << " s " << s << " k " << k;
            ASSERT_EQ(models.node(s, id).sum_lc, truth[s].at(id).sum_lc)
                << "seed " << seed << " W " << w << " tile " << tile << " s " << s << " k " << k;
          }
        }
      }
    }
  }
}

TEST(TilingProperty, AnalyzeNodesPathWalkAndSweepBitwiseEqualScalar) {
  // Sparse queries (root + one deep leaf) take the path-walk fast path;
  // the all-leaves query takes the tiled downward sweep with a sorted
  // drain. Both must reproduce the scalar oracle exactly under every
  // tile setting.
  util::WorkerPool pool(2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const circuit::RlcTree tree = circuit::make_random_tree(
        {.min_sections = 60, .max_sections = 250}, seed + 9000);
    const circuit::FlatTree flat(tree);
    const std::size_t n = flat.size();
    const std::size_t samples = 5;
    circuit::Rng rng(seed * 1234567 + 89);

    std::vector<std::vector<double>> rv(samples), lv(samples), cv(samples);
    std::vector<eed::TreeModel> truth(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      rv[s].resize(n);
      lv[s].resize(n);
      cv[s].resize(n);
      draw_sample(flat, s, rng, rv[s], lv[s], cv[s]);
      eed::analyze_values(flat, rv[s].data(), lv[s].data(), cv[s].data(), truth[s]);
    }

    const std::vector<SectionId> sparse = {SectionId{0}, flat.leaves().back()};
    const std::vector<SectionId>& dense = flat.leaves();
    engine::BatchedAnalyzer batch(flat, 4);
    batch.resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
    }
    for (const std::size_t tile : tile_draws(n, rng)) {
      batch.set_tile_rows(tile);
      for (const std::vector<SectionId>* ids : {&sparse, &dense}) {
        const engine::BatchedModels serial = batch.analyze_nodes(*ids);
        const engine::BatchedModels pooled = batch.analyze_nodes(*ids, &pool);
        for (std::size_t s = 0; s < samples; ++s) {
          for (const SectionId id : *ids) {
            ASSERT_EQ(serial.sum_rc(s, id), truth[s].at(id).sum_rc)
                << "seed " << seed << " tile " << tile << " s " << s << " id " << id;
            ASSERT_EQ(serial.node(s, id).sum_lc, truth[s].at(id).sum_lc)
                << "seed " << seed << " tile " << tile << " s " << s << " id " << id;
            ASSERT_EQ(pooled.sum_rc(s, id), serial.sum_rc(s, id));
            ASSERT_EQ(pooled.node(s, id).sum_lc, serial.node(s, id).sum_lc);
          }
        }
      }
    }
  }
}

TEST(TilingProperty, StreamBitwiseEqualsStoredUnderEveryTile) {
  const circuit::RlcTree tree = circuit::make_random_tree(
      {.min_sections = 150, .max_sections = 200}, 424242);
  const circuit::FlatTree flat(tree);
  const std::size_t n = flat.size();
  const std::size_t samples = 23;
  circuit::Rng rng(11);
  std::vector<std::vector<double>> rv(samples), lv(samples), cv(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    rv[s].resize(n);
    lv[s].resize(n);
    cv[s].resize(n);
    draw_sample(flat, s, rng, rv[s], lv[s], cv[s]);
  }
  const auto fill = [&](std::size_t s, double* r, double* l, double* c) {
    std::copy(rv[s].begin(), rv[s].end(), r);
    std::copy(lv[s].begin(), lv[s].end(), l);
    std::copy(cv[s].begin(), cv[s].end(), c);
  };
  const std::vector<SectionId> sinks = flat.leaves();
  util::WorkerPool pool(3);
  for (const std::size_t w : {std::size_t{2}, std::size_t{8}}) {
    engine::BatchedAnalyzer batch(flat, w);
    batch.resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
    }
    for (const std::size_t tile : tile_draws(n, rng)) {
      batch.set_tile_rows(tile);
      const engine::BatchedModels stored = batch.analyze_nodes(sinks);
      const engine::BatchedModels streamed = batch.analyze_stream(samples, fill, sinks);
      const engine::BatchedModels pooled = batch.analyze_stream(samples, fill, sinks, &pool);
      for (std::size_t s = 0; s < samples; ++s) {
        for (const SectionId id : sinks) {
          ASSERT_EQ(stored.sum_rc(s, id), streamed.sum_rc(s, id))
              << "W " << w << " tile " << tile << " s " << s;
          ASSERT_EQ(stored.node(s, id).sum_lc, streamed.node(s, id).sum_lc)
              << "W " << w << " tile " << tile << " s " << s;
          ASSERT_EQ(streamed.sum_rc(s, id), pooled.sum_rc(s, id))
              << "W " << w << " tile " << tile << " s " << s;
        }
      }
    }
  }
}

}  // namespace
