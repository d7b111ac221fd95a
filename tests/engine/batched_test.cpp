/// \file batched_test.cpp
/// The batched same-topology kernel against scalar ground truth. The
/// property test pins BatchedAnalyzer to scalar `eed::analyze` within
/// 1 ulp across 100 random (topology, sample-set) pairs — covering S=1,
/// S not divisible by the lane width, pure-RC (L=0) lanes next to
/// underdamped lanes, and all supported lane widths. (By construction
/// each lane runs the scalar pass's operations in its association order,
/// so the match is in fact bitwise; 1 ulp is the promised contract.)

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relmore/circuit/builders.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/random_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/util/diagnostics.hpp"
#include "relmore/util/worker_pool.hpp"

namespace {

using namespace relmore;
using circuit::SectionId;
using circuit::SectionValues;

bool ulp_close(double a, double b) {
  if (a == b) return true;  // includes matching infinities
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::nextafter(a, b) == b;
}

/// Every section id of an n-section tree, in id order.
std::vector<SectionId> all_ids(std::size_t n) {
  std::vector<SectionId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<SectionId>(i);
  return ids;
}

/// One sample's values for the property test: the tree's nominals
/// log-uniformly perturbed; every third sample is made pure RC (L = 0) so
/// degenerate lanes sit next to underdamped ones inside a lane group.
void draw_sample(const circuit::RlcTree& tree, std::size_t s, circuit::Rng& rng,
                 std::vector<double>& r, std::vector<double>& l, std::vector<double>& c) {
  const bool pure_rc = s % 3 == 2;
  for (std::size_t k = 0; k < tree.size(); ++k) {
    const SectionValues& v = tree.section(static_cast<SectionId>(k)).v;
    r[k] = v.resistance * rng.log_uniform(0.25, 4.0);
    l[k] = pure_rc ? 0.0 : v.inductance * rng.log_uniform(0.25, 4.0);
    c[k] = v.capacitance * rng.log_uniform(0.25, 4.0);
  }
}

TEST(Batched, MatchesScalarAnalyzeTo1UlpOver100RandomPairs) {
  circuit::RandomTreeSpec spec;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const circuit::RlcTree tree = circuit::make_random_tree(spec, seed);
    const circuit::FlatTree flat(tree);
    const std::size_t n = tree.size();
    // S cycles through 1, 2, ..., 13: exercises S=1 and S % W != 0 for
    // every supported lane width.
    const std::size_t samples = 1 + (seed - 1) % 13;

    // Draw the sample set once; all lane widths consume identical values.
    std::vector<std::vector<double>> rv(samples), lv(samples), cv(samples);
    circuit::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
    for (std::size_t s = 0; s < samples; ++s) {
      rv[s].resize(n);
      lv[s].resize(n);
      cv[s].resize(n);
      draw_sample(tree, s, rng, rv[s], lv[s], cv[s]);
    }

    // Scalar ground truth per sample.
    std::vector<eed::TreeModel> truth;
    truth.reserve(samples);
    circuit::RlcTree scratch = tree;
    for (std::size_t s = 0; s < samples; ++s) {
      for (std::size_t k = 0; k < n; ++k) {
        scratch.values(static_cast<SectionId>(k)) = {rv[s][k], lv[s][k], cv[s][k]};
      }
      truth.push_back(eed::analyze(scratch));
    }

    for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      engine::BatchedAnalyzer batch(flat, w);
      batch.resize(samples);
      for (std::size_t s = 0; s < samples; ++s) {
        batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
      }
      const engine::BatchedModels models = batch.analyze_nodes(all_ids(n));
      for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t k = 0; k < n; ++k) {
          const auto id = static_cast<SectionId>(k);
          const eed::NodeModel want = truth[s].at(id);
          const eed::NodeModel got = models.node(s, id);
          EXPECT_TRUE(ulp_close(got.sum_rc, want.sum_rc))
              << "SR seed " << seed << " W " << w << " sample " << s << " node " << k << ": "
              << got.sum_rc << " vs " << want.sum_rc;
          EXPECT_TRUE(ulp_close(got.sum_lc, want.sum_lc))
              << "SL seed " << seed << " W " << w << " sample " << s << " node " << k;
          EXPECT_TRUE(ulp_close(got.zeta, want.zeta))
              << "zeta seed " << seed << " W " << w << " sample " << s << " node " << k;
          EXPECT_TRUE(ulp_close(got.omega_n, want.omega_n))
              << "omega seed " << seed << " W " << w << " sample " << s << " node " << k;
        }
      }
    }
  }
}

TEST(Batched, AnalyzeNodesMatchesFullAnalyze) {
  const circuit::RlcTree tree = circuit::make_balanced_tree(5, 2, {12.0, 0.8e-9, 60e-15});
  const circuit::FlatTree flat(tree);
  engine::BatchedAnalyzer batch(flat, 4);
  batch.resize(6);
  for (std::size_t s = 0; s < 6; ++s) {
    batch.set_section(s, static_cast<SectionId>(s), {20.0 + static_cast<double>(s), 1e-9, 80e-15});
  }
  const std::vector<SectionId> subset = {0, 7, static_cast<SectionId>(tree.size() - 1)};
  const engine::BatchedModels full = batch.analyze_nodes(all_ids(tree.size()));
  const engine::BatchedModels part = batch.analyze_nodes(subset);
  for (std::size_t s = 0; s < 6; ++s) {
    for (const SectionId id : subset) {
      EXPECT_EQ(part.sum_rc(s, id), full.sum_rc(s, id));
      EXPECT_EQ(part.node(s, id).sum_lc, full.node(s, id).sum_lc);
      EXPECT_EQ(part.delay_50(s, id), full.delay_50(s, id));
    }
  }
  // Uncovered nodes and out-of-range samples throw.
  EXPECT_THROW((void)part.sum_rc(0, 3), std::out_of_range);
  EXPECT_THROW((void)part.sum_rc(6, 0), std::out_of_range);
}

TEST(Batched, PoolCompositionIsBitwiseIdentical) {
  const circuit::RlcTree tree = circuit::make_balanced_tree(7, 2, {15.0, 1.2e-9, 45e-15});
  engine::BatchedAnalyzer batch(circuit::FlatTree(tree), 4);
  const std::size_t samples = 37;  // 10 lane groups, ragged tail
  batch.resize(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    batch.set_section(s, 0, {15.0 + static_cast<double>(s), 1.2e-9, 45e-15});
  }
  const SectionId sink = tree.leaves().back();
  const engine::BatchedModels serial = batch.analyze_nodes({sink});
  util::WorkerPool pool(4);
  const engine::BatchedModels pooled = batch.analyze_nodes({sink}, &pool);
  for (std::size_t s = 0; s < samples; ++s) {
    EXPECT_EQ(serial.sum_rc(s, sink), pooled.sum_rc(s, sink)) << "sample " << s;
    EXPECT_EQ(serial.node(s, sink).sum_lc, pooled.node(s, sink).sum_lc) << "sample " << s;
  }
}

// The streaming (fused fill + analyze) path promises bitwise equality
// with the stored resize/set_sample/analyze_nodes path — same AoSoA
// block per group, same kernel — serial and pooled alike.
TEST(Batched, StreamIsBitwiseIdenticalToStoredPath) {
  const circuit::RlcTree tree =
      circuit::make_random_tree({.min_sections = 120, .max_sections = 180}, 2024);
  const circuit::FlatTree flat(tree);
  const std::size_t n = flat.size();
  const std::size_t samples = 29;  // ragged tail at every tested width
  std::vector<std::vector<double>> rv(samples), lv(samples), cv(samples);
  circuit::Rng rng(7);
  for (std::size_t s = 0; s < samples; ++s) {
    rv[s].resize(n);
    lv[s].resize(n);
    cv[s].resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      rv[s][k] = flat.resistance()[k] * (0.8 + 0.4 * rng.uniform());
      lv[s][k] = flat.inductance()[k] * (0.8 + 0.4 * rng.uniform());
      cv[s][k] = flat.capacitance()[k] * (0.8 + 0.4 * rng.uniform());
    }
  }
  const auto fill = [&](std::size_t s, double* r, double* l, double* c) {
    std::copy(rv[s].begin(), rv[s].end(), r);
    std::copy(lv[s].begin(), lv[s].end(), l);
    std::copy(cv[s].begin(), cv[s].end(), c);
  };
  const std::vector<SectionId> sinks = flat.leaves();
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    engine::BatchedAnalyzer batch(flat, w);
    batch.resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      batch.set_sample(s, rv[s].data(), lv[s].data(), cv[s].data());
    }
    const engine::BatchedModels stored = batch.analyze_nodes(sinks);
    const engine::BatchedModels streamed = batch.analyze_stream(samples, fill, sinks);
    util::WorkerPool pool(3);
    const engine::BatchedModels pooled = batch.analyze_stream(samples, fill, sinks, &pool);
    for (std::size_t s = 0; s < samples; ++s) {
      for (const SectionId id : sinks) {
        EXPECT_EQ(stored.sum_rc(s, id), streamed.sum_rc(s, id)) << "W=" << w << " s=" << s;
        EXPECT_EQ(stored.node(s, id).sum_lc, streamed.node(s, id).sum_lc)
            << "W=" << w << " s=" << s;
        EXPECT_EQ(streamed.sum_rc(s, id), pooled.sum_rc(s, id)) << "W=" << w << " s=" << s;
        EXPECT_EQ(streamed.node(s, id).sum_lc, pooled.node(s, id).sum_lc)
            << "W=" << w << " s=" << s;
      }
    }
  }
}

TEST(Batched, StreamValidatesFilledValues) {
  const circuit::RlcTree tree = circuit::make_line(8, {10.0, 1e-9, 50e-15});
  engine::BatchedAnalyzer batch(circuit::FlatTree(tree), 4);
  const auto bad_fill = [&](std::size_t, double* r, double* l, double* c) {
    for (std::size_t k = 0; k < tree.size(); ++k) {
      r[k] = 1.0;
      l[k] = 0.0;
      c[k] = 1e-15;
    }
    r[3] = -1.0;
  };
  EXPECT_THROW(
      {
        const auto m = batch.analyze_stream(5, bad_fill, all_ids(tree.size()));
        (void)m;
      },
      std::invalid_argument);
  EXPECT_THROW(
      {
        const auto m =
            batch.analyze_stream(0, [](std::size_t, double*, double*, double*) {}, {0});
        (void)m;
      },
      std::invalid_argument);
}

TEST(Batched, NominalSamplesMatchNominalTree) {
  SectionId out = circuit::kInput;
  const circuit::RlcTree tree = circuit::make_fig8_tree(&out);
  engine::BatchedAnalyzer batch{circuit::FlatTree(tree)};
  batch.resize(3);  // resize() fills every sample with the snapshot's nominals
  const eed::TreeModel want = eed::analyze(tree);
  const engine::BatchedModels got = batch.analyze_nodes(all_ids(tree.size()));
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t k = 0; k < tree.size(); ++k) {
      const auto id = static_cast<SectionId>(k);
      EXPECT_EQ(got.sum_rc(s, id), want.at(id).sum_rc);
      EXPECT_EQ(got.node(s, id).sum_lc, want.at(id).sum_lc);
    }
  }
  EXPECT_EQ(got.delay_50(0, out), eed::delay_50(want.at(out)));
}

TEST(Batched, ValidatesInputs) {
  const circuit::RlcTree tree = circuit::make_line(4, {10.0, 1e-9, 50e-15});
  const circuit::FlatTree flat(tree);
  EXPECT_THROW(engine::BatchedAnalyzer(flat, 3), std::invalid_argument);
  EXPECT_THROW(engine::BatchedAnalyzer(circuit::FlatTree(circuit::RlcTree{})),
               std::invalid_argument);

  engine::BatchedAnalyzer batch(flat, 4);
  EXPECT_THROW((void)batch.analyze_nodes({0}), std::invalid_argument);  // no samples yet
  batch.resize(2);
  EXPECT_THROW(batch.set_section(2, 0, {1.0, 0.0, 0.0}), std::out_of_range);
  EXPECT_THROW(batch.set_section(0, 99, {1.0, 0.0, 0.0}), std::out_of_range);
  EXPECT_THROW(batch.set_section(0, 0, {-1.0, 0.0, 0.0}), std::invalid_argument);
  std::vector<double> r(4, 1.0), l(4, 0.0), c(4, -1e-15);
  EXPECT_THROW(batch.set_sample(0, r.data(), l.data(), c.data()), std::invalid_argument);
  EXPECT_THROW((void)batch.analyze_nodes({99}), std::out_of_range);
}

TEST(FlatTree, SnapshotsTopologyValuesAndColdNames) {
  SectionId out = circuit::kInput;
  const circuit::RlcTree tree = circuit::make_fig8_tree(&out);
  const circuit::FlatTree flat(tree);
  ASSERT_EQ(flat.size(), tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const auto id = static_cast<SectionId>(i);
    EXPECT_EQ(flat.parent()[i], tree.section(id).parent);
    EXPECT_EQ(flat.resistance()[i], tree.section(id).v.resistance);
    EXPECT_EQ(flat.inductance()[i], tree.section(id).v.inductance);
    EXPECT_EQ(flat.capacitance()[i], tree.section(id).v.capacitance);
    EXPECT_EQ(flat.names()[i], tree.section(id).name);
    EXPECT_EQ(flat.level()[i], tree.level(id));
    EXPECT_EQ(flat.child_count()[i], static_cast<int>(tree.children(id).size()));
  }
  EXPECT_EQ(flat.depth(), tree.depth());
  EXPECT_EQ(flat.leaves(), tree.leaves());
  EXPECT_EQ(flat.find_by_name("O"), tree.find_by_name("O"));
  EXPECT_EQ(flat.find_by_name("no-such-name"), circuit::kInput);
}

/// What one scalar entry point returned: its model, or the FaultError it
/// threw under kThrow.
struct Verdict {
  eed::TreeModel model;
  bool threw = false;
  util::ErrorCode code = util::ErrorCode::kOk;
  int node = -1;
};

template <typename Analyze>
Verdict verdict_of(Analyze&& analyze) {
  Verdict v;
  try {
    v.model = analyze();
  } catch (const util::FaultError& e) {
    v.threw = true;
    v.code = e.code();
    v.node = e.node();
  }
  return v;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_verdict(const Verdict& a, const Verdict& b, const std::string& where) {
  ASSERT_EQ(a.threw, b.threw) << where;
  if (a.threw) {
    EXPECT_EQ(a.code, b.code) << where;
    EXPECT_EQ(a.node, b.node) << where;
    return;
  }
  ASSERT_EQ(a.model.nodes.size(), b.model.nodes.size()) << where;
  for (std::size_t i = 0; i < a.model.nodes.size(); ++i) {
    const eed::NodeModel& x = a.model.nodes[i];
    const eed::NodeModel& y = b.model.nodes[i];
    EXPECT_EQ(bits(x.sum_rc), bits(y.sum_rc)) << where << " node " << i;
    EXPECT_EQ(bits(x.sum_lc), bits(y.sum_lc)) << where << " node " << i;
    EXPECT_EQ(bits(x.zeta), bits(y.zeta)) << where << " node " << i;
    EXPECT_EQ(bits(x.omega_n), bits(y.omega_n)) << where << " node " << i;
    EXPECT_EQ(bits(a.model.load_capacitance[i]), bits(b.model.load_capacitance[i]))
        << where << " node " << i;
  }
  EXPECT_EQ(a.model.fault_flags, b.model.fault_flags) << where;
  EXPECT_EQ(a.model.fault_count, b.model.fault_count) << where;
}

TEST(FlatTree, ScalarAnalyzeOverloadIsBitwiseEqual) {
  // analyze(RlcTree), analyze(FlatTree) and analyze_values run one kernel:
  // on healthy trees and on copies poisoned with a NaN R, an Inf C or an
  // overflowing section, under every fault policy, they return the same
  // bits, the same fault flags, or the same FaultError.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  circuit::RandomTreeSpec spec;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const circuit::RlcTree healthy = circuit::make_random_tree(spec, seed);
    const auto mid = static_cast<SectionId>(healthy.size() / 2);
    std::vector<std::pair<const char*, circuit::RlcTree>> cases(4, {"healthy", healthy});
    cases[1].first = "NaN R";
    cases[1].second.values(mid).resistance = kNaN;
    cases[2].first = "Inf C";
    cases[2].second.values(mid).capacitance = kInf;
    cases[3].first = "overflow";
    cases[3].second.values(mid).resistance = 1e300;
    cases[3].second.values(mid).capacitance = 1e30;
    const circuit::FlatTree topology(healthy);

    for (const auto& [label, tree] : cases) {
      const circuit::FlatTree flat(tree);
      const bool poisoned = std::string(label) != "healthy";
      for (const util::FaultPolicy policy :
           {util::FaultPolicy::kThrow, util::FaultPolicy::kClampAndFlag,
            util::FaultPolicy::kSkipAndFlag}) {
        eed::AnalyzeOptions options;
        options.fault_policy = policy;
        const std::string where = "seed " + std::to_string(seed) + " " + label + " policy " +
                                  std::to_string(static_cast<int>(policy));
        const Verdict aos = verdict_of([&] { return eed::analyze(tree, options); });
        const Verdict soa = verdict_of([&] { return eed::analyze(flat, options); });
        const Verdict values = verdict_of([&] {
          eed::TreeModel model;
          eed::analyze_values(topology, flat.resistance().data(), flat.inductance().data(),
                              flat.capacitance().data(), model, options);
          return model;
        });
        // The poison must register, or the comparison below proves nothing.
        if (policy == util::FaultPolicy::kThrow) {
          EXPECT_EQ(aos.threw, poisoned) << where;
        } else {
          EXPECT_EQ(aos.model.fault_count > 0, poisoned) << where;
        }
        expect_same_verdict(aos, soa, where + " analyze(FlatTree)");
        expect_same_verdict(aos, values, where + " analyze_values");
      }
    }
  }
}

}  // namespace
