#include "opt/set_cover.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace fastmon {
namespace {

SetCoverInstance make_instance(std::uint32_t n_elems,
                               std::vector<std::vector<std::uint32_t>> sets) {
    SetCoverInstance inst;
    inst.num_elements = n_elems;
    inst.sets = std::move(sets);
    for (auto& s : inst.sets) std::sort(s.begin(), s.end());
    return inst;
}

TEST(SetCover, GreedyCoversEverything) {
    const SetCoverInstance inst =
        make_instance(4, {{0, 1}, {2}, {3}, {0, 1, 2}});
    const SetCoverResult r = greedy_set_cover(inst);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.covered_weight, 4u);
}

TEST(SetCover, ExactBeatsGreedyOnClassicTrap) {
    // Classic greedy trap: elements 0..5; the big "trap" set {0,1,2,3}
    // attracts greedy, forcing 3 sets, while {0,1,4} + {2,3,5} cover in 2.
    const SetCoverInstance inst = make_instance(
        6, {{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}, {4}, {5}});
    const SetCoverResult greedy = greedy_set_cover(inst);
    const SetCoverResult exact = solve_set_cover(inst);
    EXPECT_TRUE(exact.feasible);
    EXPECT_TRUE(exact.proven_optimal);
    EXPECT_EQ(exact.chosen.size(), 2u);
    EXPECT_GE(greedy.chosen.size(), exact.chosen.size());
}

TEST(SetCover, UncoverableElementMakesFullCoverInfeasible) {
    const SetCoverInstance inst = make_instance(3, {{0}, {1}});
    const SetCoverResult r = solve_set_cover(inst);
    EXPECT_FALSE(r.feasible);
    // Partial cover of 2/3 is fine.
    SetCoverOptions opt;
    opt.coverage = 0.66;
    const SetCoverResult partial = solve_set_cover(inst, opt);
    EXPECT_TRUE(partial.feasible);
}

TEST(SetCover, EssentialSetsAreForced) {
    // Element 3 only in set 2; sets 0/1 redundant after set 2 chosen.
    const SetCoverInstance inst =
        make_instance(4, {{0, 1}, {1, 2}, {0, 1, 2, 3}});
    const SetCoverResult r = solve_set_cover(inst);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen, (std::vector<std::uint32_t>{2}));
}

TEST(SetCover, WeightedPartialCover) {
    SetCoverInstance inst = make_instance(3, {{0}, {1}, {2}});
    inst.element_weight = {100, 1, 1};
    SetCoverOptions opt;
    opt.coverage = 0.9;  // target ceil(0.9 * 102) = 92
    const SetCoverResult r = solve_set_cover(inst, opt);
    ASSERT_TRUE(r.feasible);
    // The heavy element alone reaches the target: one set.
    EXPECT_EQ(r.chosen.size(), 1u);
    EXPECT_EQ(r.chosen[0], 0u);
    EXPECT_EQ(r.covered_weight, 100u);
    // At 100 % every set is needed.
    SetCoverOptions full;
    const SetCoverResult rf = solve_set_cover(inst, full);
    ASSERT_TRUE(rf.feasible);
    EXPECT_EQ(rf.chosen.size(), 3u);
}

TEST(SetCover, PartialCoverPicksHeavyElements) {
    SetCoverInstance inst = make_instance(4, {{0}, {1}, {2}, {3}});
    inst.element_weight = {10, 10, 10, 70};
    SetCoverOptions opt;
    opt.coverage = 0.7;  // target 70
    const SetCoverResult r = solve_set_cover(inst, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen, (std::vector<std::uint32_t>{3}));
}

/// Brute-force minimal full cover.
std::size_t brute_cover(const SetCoverInstance& inst) {
    const std::size_t n = inst.sets.size();
    std::size_t best = SIZE_MAX;
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
        std::vector<bool> covered(inst.num_elements, false);
        std::size_t count = 0;
        for (std::size_t s = 0; s < n; ++s) {
            if ((m >> s) & 1) {
                ++count;
                for (std::uint32_t e : inst.sets[s]) covered[e] = true;
            }
        }
        if (std::all_of(covered.begin(), covered.end(),
                        [](bool b) { return b; })) {
            best = std::min(best, count);
        }
    }
    return best;
}

// Property: exact solver matches brute force on random instances.
class SetCoverBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetCoverBruteForce, MatchesExhaustive) {
    Prng rng(GetParam() * 41 + 3);
    for (int instance = 0; instance < 15; ++instance) {
        const std::uint32_t n_elems = 10 + static_cast<std::uint32_t>(
                                               rng.next_below(8));
        const std::size_t n_sets = 8 + rng.next_below(5);
        SetCoverInstance inst;
        inst.num_elements = n_elems;
        inst.sets.resize(n_sets);
        for (std::uint32_t e = 0; e < n_elems; ++e) {
            // Ensure coverability.
            inst.sets[e % n_sets].push_back(e);
            inst.sets[rng.next_below(n_sets)].push_back(e);
        }
        for (auto& s : inst.sets) {
            std::sort(s.begin(), s.end());
            s.erase(std::unique(s.begin(), s.end()), s.end());
        }
        const std::size_t bf = brute_cover(inst);
        const SetCoverResult r = solve_set_cover(inst);
        ASSERT_TRUE(r.feasible);
        ASSERT_TRUE(r.proven_optimal);
        EXPECT_EQ(r.chosen.size(), bf) << "instance " << instance;
        // Validate the cover.
        std::vector<bool> covered(n_elems, false);
        for (std::uint32_t s : r.chosen) {
            for (std::uint32_t e : inst.sets[s]) covered[e] = true;
        }
        EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                                [](bool b) { return b; }));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCoverBruteForce,
                         ::testing::Range<std::uint64_t>(1, 11));

/// Brute-force minimal partial cover by weight.
std::size_t brute_partial(const SetCoverInstance& inst, double coverage) {
    const std::size_t n = inst.sets.size();
    const auto target = static_cast<std::uint64_t>(
        std::ceil(coverage * static_cast<double>(inst.total_weight()) - 1e-9));
    std::size_t best = SIZE_MAX;
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
        std::vector<bool> covered(inst.num_elements, false);
        std::size_t count = 0;
        for (std::size_t s = 0; s < n; ++s) {
            if ((m >> s) & 1) {
                ++count;
                for (std::uint32_t e : inst.sets[s]) covered[e] = true;
            }
        }
        std::uint64_t w = 0;
        for (std::uint32_t e = 0; e < inst.num_elements; ++e) {
            if (covered[e]) w += inst.weight_of(e);
        }
        if (w >= target) best = std::min(best, count);
    }
    return best;
}

class PartialCoverBruteForce : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PartialCoverBruteForce, MatchesExhaustive) {
    Prng rng(GetParam() * 97 + 11);
    for (int instance = 0; instance < 10; ++instance) {
        const std::uint32_t n_elems = 12;
        const std::size_t n_sets = 9;
        SetCoverInstance inst;
        inst.num_elements = n_elems;
        inst.sets.resize(n_sets);
        inst.element_weight.resize(n_elems);
        for (std::uint32_t e = 0; e < n_elems; ++e) {
            inst.element_weight[e] =
                1 + static_cast<std::uint32_t>(rng.next_below(9));
            inst.sets[rng.next_below(n_sets)].push_back(e);
            inst.sets[rng.next_below(n_sets)].push_back(e);
        }
        for (auto& s : inst.sets) {
            std::sort(s.begin(), s.end());
            s.erase(std::unique(s.begin(), s.end()), s.end());
        }
        for (double coverage : {0.9, 0.75, 0.5}) {
            SetCoverOptions opt;
            opt.coverage = coverage;
            const std::size_t bf = brute_partial(inst, coverage);
            const SetCoverResult r = solve_set_cover(inst, opt);
            ASSERT_TRUE(r.feasible) << coverage;
            if (r.proven_optimal) {
                EXPECT_EQ(r.chosen.size(), bf)
                    << "instance " << instance << " cov " << coverage;
            } else {
                EXPECT_GE(r.chosen.size(), bf);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialCoverBruteForce,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Seeded corpus instance shaped like a frequency-selection cover but
/// beyond brute-force reach: 60-200 candidate points (columns) on a
/// time axis and 1-2x as many elements, each a union of 1-3 random
/// intervals covered by the points inside it; weights 1-9 when
/// `weighted`.
SetCoverInstance corpus_instance(std::uint64_t seed, bool weighted) {
    Prng rng(seed);
    const std::size_t n_sets = 60 + rng.next_below(141);
    const auto n_elems = static_cast<std::uint32_t>(
        n_sets + rng.next_below(n_sets + 1));
    std::vector<double> points(n_sets);
    for (double& t : points) t = rng.uniform(0.0, 1000.0);
    SetCoverInstance inst;
    inst.num_elements = n_elems;
    inst.sets.resize(n_sets);
    for (std::uint32_t e = 0; e < n_elems; ++e) {
        const std::size_t pieces = 1 + rng.next_below(3);
        bool covered = false;
        for (std::size_t k = 0; k < pieces; ++k) {
            const double lo = rng.uniform(0.0, 1000.0);
            const double hi = lo + rng.uniform(5.0, 80.0);
            for (std::size_t s = 0; s < n_sets; ++s) {
                if (points[s] >= lo && points[s] < hi) {
                    inst.sets[s].push_back(e);
                    covered = true;
                }
            }
        }
        if (!covered) inst.sets[rng.next_below(n_sets)].push_back(e);
        if (weighted) {
            inst.element_weight.push_back(
                1 + static_cast<std::uint32_t>(rng.next_below(9)));
        }
    }
    for (auto& s : inst.sets) {
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    return inst;
}

struct PinnedCover {
    std::uint64_t seed;
    double coverage;  ///< 1.0 = full cover, else weighted partial
    std::vector<std::uint32_t> chosen;
};

// Regression pin: the exact cover today's solver returns on instances it
// proves optimal (default node budget).  Downstream schedules depend on
// which optimal cover wins a tie, not only on its size, so a faster or
// stronger search must still return these very covers.  Instances the
// solver does not prove today are left out.
TEST(SetCover, PinnedCorpusCoversUnchanged) {
    const std::vector<PinnedCover> pinned{
        {2, 1.0, {2, 6, 8, 12, 14, 15, 19, 23, 30, 32, 34, 35, 37, 45, 46,
                  47, 48, 58, 61, 64, 71, 74, 85, 86, 88, 91, 103}},
        {3, 1.0, {0, 1, 10, 15, 16, 18, 19, 21, 26, 29, 30, 32, 34, 41, 46,
                  49, 51, 55, 61, 64, 67, 68, 69}},
        {6, 1.0, {1, 3, 11, 13, 26, 33, 38, 47, 48, 50, 53, 57, 58, 64, 65,
                  67, 69, 72, 79, 86, 98, 103, 115, 116, 117, 127, 135, 140,
                  145}},
        {8, 1.0, {2, 4, 7, 9, 13, 20, 27, 28, 45, 47, 49, 51, 62, 64, 65, 68,
                  69, 75, 79, 80, 82, 95, 104, 106, 112}},
        {11, 1.0, {16, 20, 21, 29, 39, 41, 42, 48, 51, 59, 62, 75, 77, 79, 80,
                   83, 94, 100, 113, 117, 119, 124, 141, 147, 148, 158}},
        {13, 1.0, {0, 1, 2, 6, 7, 8, 9, 10, 11, 16, 20, 26, 27, 29, 37, 44, 46,
                   49, 51, 56, 58, 60, 61, 66, 70, 77, 92, 96, 98, 102}},
        {17, 1.0, {5, 10, 11, 13, 17, 18, 19, 29, 33, 34, 48, 56, 60, 70, 75,
                   78, 94, 95, 104, 109, 116, 117, 119, 135, 139, 144, 145,
                   152, 180, 183}},
        {22, 1.0, {6, 7, 10, 27, 29, 30, 31, 34, 39, 44, 49, 55, 56, 58, 60,
                   65, 69, 73, 74, 83, 94, 96, 99, 100, 101, 107, 113}},
        {26, 1.0, {4, 5, 9, 16, 17, 22, 27, 31, 33, 42, 43, 44, 45, 48, 54, 87,
                   89, 91, 95, 97, 99, 103, 110, 117, 118}},
        {30, 1.0, {0, 4, 5, 6, 13, 16, 18, 26, 30, 40, 41, 42, 44, 51, 57, 65,
                   68, 73, 85, 91, 102, 105, 122, 132, 133, 141, 143, 144,
                   150}},
        {31, 1.0, {12, 15, 16, 17, 21, 22, 23, 29, 43, 56, 65, 70, 75, 76, 78,
                   84, 89, 97, 100, 102, 118, 119, 120, 121, 126, 131, 132}},
        {39, 1.0, {0, 1, 6, 9, 13, 15, 19, 20, 21, 24, 30, 34, 40, 41, 47, 48,
                   49, 58, 59, 61, 64, 72, 77, 79, 101}},
        {3, 0.75, {12, 14, 27, 30, 33, 37, 46, 50}},
        {5, 0.75, {4, 8, 14, 23, 38, 60, 68}},
        {19, 0.75, {6, 7, 26, 49, 51, 54, 66, 106}},
        {21, 0.75, {4, 6, 26, 32, 39, 42, 46, 54, 57}},
        {32, 0.75, {4, 8, 19, 23, 31, 34, 47, 52}},
        {34, 0.75, {0, 4, 11, 25, 44, 50, 53, 59}},
        {35, 0.75, {0, 5, 18, 19, 32, 47, 56, 59}},
        {38, 0.75, {11, 13, 15, 28, 31, 45, 64, 68}},
    };
    for (const PinnedCover& pin : pinned) {
        const SetCoverInstance inst =
            corpus_instance(pin.seed, pin.coverage < 1.0);
        SetCoverOptions opt;
        opt.coverage = pin.coverage;
        opt.time_limit_sec = 600.0;  // only the node budget may bind
        const SetCoverResult r = solve_set_cover(inst, opt);
        ASSERT_GE(inst.sets.size(), 60u);
        EXPECT_TRUE(r.feasible) << "seed " << pin.seed;
        EXPECT_TRUE(r.proven_optimal) << "seed " << pin.seed;
        EXPECT_EQ(r.chosen, pin.chosen)
            << "seed " << pin.seed << " coverage " << pin.coverage;
    }
}

TEST(SetCover, BudgetFallsBackToGreedy) {
    Prng rng(17);
    SetCoverInstance inst;
    inst.num_elements = 200;
    inst.sets.resize(60);
    for (std::uint32_t e = 0; e < inst.num_elements; ++e) {
        for (int k = 0; k < 3; ++k) {
            inst.sets[rng.next_below(60)].push_back(e);
        }
    }
    for (auto& s : inst.sets) {
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    SetCoverOptions opt;
    opt.max_nodes = 2;
    opt.time_limit_sec = 0.01;
    const SetCoverResult r = solve_set_cover(inst, opt);
    // Still feasible (greedy incumbent), but not proven optimal.
    if (greedy_set_cover(inst).feasible) {
        EXPECT_TRUE(r.feasible);
        EXPECT_FALSE(r.proven_optimal);
    }
}

}  // namespace
}  // namespace fastmon
