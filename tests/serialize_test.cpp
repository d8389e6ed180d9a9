// Serialization robustness: bit-for-bit round trips for the tree-family
// models (GB and RF) on random inputs, plus negative tests proving that
// corrupted artifacts fail through CCPRED_CHECK rather than reading
// uninitialized structure, and a seeded mutation fuzz of the reader.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "test_util.hpp"

namespace ccpred::ml {
namespace {

linalg::Matrix random_queries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix x(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.uniform(-3.0, 3.0);
  }
  return x;
}

GradientBoostingRegressor small_gb(std::uint64_t seed = 7) {
  const auto data = test::make_nonlinear(200, 0.05, seed);
  GradientBoostingRegressor model(25);
  model.fit(data.x, data.y);
  return model;
}

TEST(SerializeGbTest, RoundTripPredictsBitForBitOnRandomInputs) {
  // Property: over several models and query batches, deserialize(serialize)
  // is an exact functional identity — doubles compare with ==, not NEAR.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto model = small_gb(seed);
    const auto restored = deserialize_gb(serialize_gb(model));
    const auto x = random_queries(64, seed * 31 + 1);
    const auto expect = model.predict(x);
    const auto got = restored.predict(x);
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i], got[i]) << "seed " << seed << " row " << i;
    }
  }
}

TEST(SerializeGbTest, SerializationIsAFixedPoint) {
  const auto model = small_gb();
  const auto text = serialize_gb(model);
  EXPECT_EQ(text, serialize_gb(deserialize_gb(text)));
}

TEST(SerializeRfTest, RoundTripPredictsBitForBit) {
  const auto data = test::make_nonlinear(200, 0.05, 11);
  RandomForestRegressor model(15);
  model.fit(data.x, data.y);
  const auto restored = deserialize_rf(serialize_rf(model));
  EXPECT_EQ(restored.tree_count(), model.tree_count());
  const auto x = random_queries(64, 99);
  const auto expect = model.predict(x);
  const auto got = restored.predict(x);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]);
  }
}

TEST(SerializeRfTest, FixedPointAndHeader) {
  const auto data = test::make_linear(100, 0.0, 3);
  RandomForestRegressor model(5);
  model.fit(data.x, data.y);
  const auto text = serialize_rf(model);
  EXPECT_EQ(text.rfind("ccpred-rf-v1\n", 0), 0u);
  EXPECT_EQ(text, serialize_rf(deserialize_rf(text)));
}

TEST(SerializeNegativeTest, WrongHeaderThrows) {
  const auto text = serialize_gb(small_gb());
  EXPECT_THROW(deserialize_rf(text), Error);   // GB artifact into RF loader
  EXPECT_THROW(deserialize_gb("ccpred-rf-v1\n1\n"), Error);
  EXPECT_THROW(deserialize_gb("not-a-model\n"), Error);
  EXPECT_THROW(deserialize_gb(""), Error);
}

TEST(SerializeNegativeTest, TruncatedNodeRecordsThrow) {
  const auto text = serialize_gb(small_gb());
  // Chop the artifact at several depths: mid-header-line, mid-node-table,
  // mid-final-tree. Every truncation must throw, never return a model.
  for (const double frac : {0.02, 0.3, 0.6, 0.9, 0.99}) {
    const auto cut = text.substr(0, static_cast<std::size_t>(
                                        text.size() * frac));
    EXPECT_THROW(deserialize_gb(cut), Error) << "fraction " << frac;
  }
}

TEST(SerializeNegativeTest, ShortNodeRecordThrows) {
  // A structurally valid prefix whose node table lies about its length.
  std::ostringstream os;
  os << "ccpred-tree-v1\n"
     << "3 2\n"                      // claims 3 nodes...
     << "-1 0 1.5 -1 -1\n";          // ...but provides 1
  EXPECT_THROW(deserialize_tree(os.str()), Error);
}

TEST(SerializeNegativeTest, ImplausibleCountsThrow) {
  EXPECT_THROW(deserialize_tree("ccpred-tree-v1\n999999999 4\n"), Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n99999999 0.1 5.0\n"), Error);
  EXPECT_THROW(deserialize_rf("ccpred-rf-v1\n99999999\n"), Error);
  EXPECT_THROW(deserialize_rf("ccpred-rf-v1\n0\n"), Error);
}

TEST(SerializeNegativeTest, TruncatedImportanceThrows) {
  std::ostringstream os;
  os << "ccpred-tree-v1\n"
     << "1 4\n"
     << "-1 0 2.5 -1 -1\n"
     << "0.1 0.2\n";  // 4 importances promised, 2 delivered
  EXPECT_THROW(deserialize_tree(os.str()), Error);
}

TEST(SerializeNegativeTest, UnfittedModelsRefuseToSerialize) {
  EXPECT_THROW(serialize_gb(GradientBoostingRegressor(10)), Error);
  EXPECT_THROW(serialize_rf(RandomForestRegressor(10)), Error);
}

// ------------------------------------------- node tables that are not trees

/// A tree file around `nodes` (one "feature threshold value left right"
/// record per line) with `n_features` importances.
std::string tree_file(const std::vector<std::string>& nodes,
                      std::size_t n_features = 2) {
  std::ostringstream os;
  os << "ccpred-tree-v1\n" << nodes.size() << ' ' << n_features << '\n';
  for (const auto& node : nodes) os << node << '\n';
  for (std::size_t f = 0; f < n_features; ++f) os << (f ? " " : "") << "0.5";
  os << '\n';
  return os.str();
}

TEST(SerializeNegativeTest, WellFormedThreeNodeTreeLoads) {
  // The positive control for the corrupt tables below.
  const auto text = tree_file({"0 0.5 1 1 2", "-1 0 1.5 -1 -1",
                               "-1 0 2.5 -1 -1"});
  const auto tree = deserialize_tree(text);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(serialize_tree(tree), text);
}

TEST(SerializeNegativeTest, CyclicNodeTableThrows) {
  // Node 2 points back at the root: the compiler's BFS would never end.
  EXPECT_THROW(deserialize_tree(tree_file({"0 0.5 1 1 2", "-1 0 1.5 -1 -1",
                                           "1 0.5 2.5 0 1"})),
               Error);
  // Every other node has one parent, but node 1 names the root as a child.
  EXPECT_THROW(deserialize_tree(tree_file({"0 0.5 1 1 2", "0 0.5 1 0 3",
                                           "-1 0 2 -1 -1", "-1 0 3 -1 -1"})),
               Error);
  // Two internal nodes that are each other's child.
  EXPECT_THROW(deserialize_tree(tree_file({"0 0.5 1 1 2", "0 0.5 1 2 3",
                                           "0 0.5 1 1 3", "-1 0 1 -1 -1"})),
               Error);
}

TEST(SerializeNegativeTest, SharedOrOrphanNodeThrows) {
  // Both children are node 1: it has two parents.
  EXPECT_THROW(deserialize_tree(tree_file({"0 0.5 1 1 1", "-1 0 1.5 -1 -1"})),
               Error);
  // Node 3 is referenced by no one.
  EXPECT_THROW(deserialize_tree(tree_file({"0 0.5 1 1 2", "-1 0 1.5 -1 -1",
                                           "-1 0 2.5 -1 -1",
                                           "-1 0 3.5 -1 -1"})),
               Error);
}

TEST(SerializeNegativeTest, OutOfRangeFeatureThrows) {
  // Feature 7 on a tree whose importances say the input has 2 columns:
  // predicting would read past the row.
  EXPECT_THROW(deserialize_tree(tree_file({"7 0.5 1 1 2", "-1 0 1.5 -1 -1",
                                           "-1 0 2.5 -1 -1"})),
               Error);
  EXPECT_THROW(deserialize_tree(tree_file({"2 0.5 1 1 2", "-1 0 1.5 -1 -1",
                                           "-1 0 2.5 -1 -1"})),
               Error);
  // Without importances there is no width to check against.
  EXPECT_NO_THROW(deserialize_tree(tree_file(
      {"7 0.5 1 1 2", "-1 0 1.5 -1 -1", "-1 0 2.5 -1 -1"}, 0)));
}

TEST(SerializeNegativeTest, NonFiniteValuesThrow) {
  for (const char* bad : {"inf", "-inf", "nan", "infinity", "1e999"}) {
    const std::string b = bad;
    EXPECT_THROW(deserialize_tree(tree_file({"0 " + b + " 1 1 2",
                                             "-1 0 1.5 -1 -1",
                                             "-1 0 2.5 -1 -1"})),
                 Error)
        << "threshold " << bad;
    EXPECT_THROW(deserialize_tree(tree_file({"0 0.5 1 1 2",
                                             "-1 0 " + b + " -1 -1",
                                             "-1 0 2.5 -1 -1"})),
                 Error)
        << "value " << bad;
  }
  // The importances and the GB header line reject them at parse time.
  EXPECT_THROW(deserialize_tree("ccpred-tree-v1\n1 1\n-1 0 1.5 -1 -1\ninf\n"),
               Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n1 nan 0.5\n1 0\n-1 0 1.5 -1 -1\n"),
               Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n1 0.1 -inf\n1 0\n-1 0 1.5 -1 -1\n"),
               Error);
  EXPECT_NO_THROW(
      deserialize_gb("ccpred-gb-v1\n1 0.1 0.5\n1 0\n-1 0 1.5 -1 -1\n"));
  // from_parts itself rejects them too, whatever built the table.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto leaf = [](double value) {
    TreeNode n;
    n.value = value;
    return n;
  };
  TreeNode split;
  split.feature = 0;
  split.left = 1;
  split.right = 2;
  split.threshold = kInf;
  EXPECT_THROW(DecisionTreeRegressor::from_parts(
                   {}, {split, leaf(1.0), leaf(2.0)}, {0.5}),
               Error);
  split.threshold = 0.5;
  EXPECT_THROW(DecisionTreeRegressor::from_parts(
                   {}, {split, leaf(std::nan("")), leaf(2.0)}, {0.5}),
               Error);
  EXPECT_NO_THROW(DecisionTreeRegressor::from_parts(
      {}, {split, leaf(1.0), leaf(2.0)}, {0.5}));
}

// ------------------------------------------------------ tokenizer edge cases

std::string replace_all(const std::string& s, const std::string& from,
                        const std::string& to) {
  std::string out;
  std::size_t done = 0;
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, done)) {
    out.append(s, done, at - done).append(to);
    done = at + from.size();
  }
  return out.append(s, done);
}

TEST(SerializeParserTest, AnyWhitespaceSeparatesTokens) {
  const auto text = serialize_gb(small_gb());
  for (const auto& variant :
       {replace_all(text, "\n", "\r\n"), replace_all(text, " ", "\t"),
        replace_all(text, " ", "   "), replace_all(text, "\n", " \t\r\n\v\f"),
        "  \n" + text}) {
    EXPECT_EQ(serialize_gb(deserialize_gb(variant)), text);
  }
}

TEST(SerializeParserTest, MissingTrailingNewlineParses) {
  const auto text = serialize_gb(small_gb());
  ASSERT_EQ(text.back(), '\n');
  EXPECT_EQ(serialize_gb(deserialize_gb(text.substr(0, text.size() - 1))),
            text);
  const std::string leaf = "ccpred-tree-v1\n1 0\n-1 0 1.5 -1 -1";
  EXPECT_EQ(serialize_tree(deserialize_tree(leaf)), leaf + "\n");
}

TEST(SerializeParserTest, MalformedNumbersThrow) {
  const std::string good = "ccpred-tree-v1\n1 1\n-1 0 1.5 -1 -1\n0.25\n";
  ASSERT_NO_THROW(deserialize_tree(good));
  // A number glued to garbage, wherever it sits.
  EXPECT_THROW(deserialize_tree(replace_all(good, "1.5", "1.5x")), Error);
  EXPECT_THROW(deserialize_tree(replace_all(good, "0.25", "0.25;")), Error);
  EXPECT_THROW(deserialize_tree(replace_all(good, "1 1\n", "1x 1\n")), Error);
  EXPECT_THROW(deserialize_tree("ccpred-tree-v1x\n1 0\n-1 0 1.5 -1 -1\n"),
               Error);
  // A leading '+' is not part of the format.
  EXPECT_THROW(deserialize_tree(replace_all(good, "1.5", "+1.5")), Error);
  EXPECT_THROW(deserialize_tree(replace_all(good, "1 1\n", "+1 1\n")), Error);
  EXPECT_THROW(deserialize_tree(replace_all(good, "0 1.5", "+0 1.5")), Error);
  // Negative sizes.
  EXPECT_THROW(deserialize_tree(replace_all(good, "1 1\n", "-1 1\n")), Error);
  EXPECT_THROW(deserialize_tree(replace_all(good, "1 1\n", "1 -1\n")), Error);
  EXPECT_THROW(deserialize_gb("ccpred-gb-v1\n-3 0.1 5.0\n"), Error);
  EXPECT_THROW(deserialize_rf("ccpred-rf-v1\n-2\n"), Error);
}

/// what() of the ccpred::Error that `load` throws; fails the test if none.
template <typename Load>
std::string load_error(Load load) {
  try {
    load();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "loaded without a ccpred::Error";
  return "";
}

TEST(SerializeParserTest, CountsBeyondTheRemainingBytesFailBeforeSizing) {
  // Counts below the plausibility caps but larger than the text could
  // describe are refused before a vector is sized from them.
  for (const auto& err : {
           load_error([] { deserialize_tree("ccpred-tree-v1\n60000000 0\n"); }),
           load_error([] {
             deserialize_tree("ccpred-tree-v1\n1 60000000\n-1 0 1 -1 -1\n");
           }),
           load_error([] {
             deserialize_gb("ccpred-gb-v1\n900000 0.1 0.5\n1 0\n-1 0 1 -1 -1\n");
           })}) {
    EXPECT_NE(err.find("exceed"), std::string::npos) << err;
  }
}

TEST(SerializeGbTest, ServedSizeModelRoundTripsByteIdentically) {
  // The daemon's fallback GB is RegistryOptions::gb_estimators stages.
  const int stages = serve::RegistryOptions{}.gb_estimators;
  const auto data = test::make_nonlinear(120, 0.05, 5);
  GradientBoostingRegressor model(stages);
  model.fit(data.x, data.y);
  const auto text = serialize_gb(model);
  const auto restored = deserialize_gb(text);
  ASSERT_EQ(restored.stages().size(), static_cast<std::size_t>(stages));
  EXPECT_EQ(serialize_gb(restored), text);
  const auto x = random_queries(256, 17);
  const auto expect = model.predict(x);
  const auto got = restored.predict(x);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i], got[i]) << "row " << i;
  }
}

// ------------------------------------------------------- mutation fuzzing

/// Whitespace-separated token spans of `text`, as [begin, end) offsets.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const std::size_t begin = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > begin) spans.emplace_back(begin, i);
  }
  return spans;
}

/// One seeded mutant of `text`: a byte flip, a truncation, or a swap of
/// two tokens.
std::string mutate(const std::string& text, Rng& rng) {
  static const std::string kBytes = "0123456789-+.eE \n\txin";
  std::string m = text;
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(m.size()) - 1));
      m[at] = rng.uniform_int(0, 3) == 0
                  ? static_cast<char>(rng.uniform_int(0, 255))
                  : kBytes[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(kBytes.size()) - 1))];
      break;
    }
    case 1:
      m.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(m.size()) - 1)));
      break;
    default: {
      const auto spans = token_spans(m);
      auto a = spans[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(spans.size()) - 1))];
      auto b = spans[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(spans.size()) - 1))];
      if (a.first > b.first) std::swap(a, b);
      if (a.first == b.first) break;
      const std::string ta = m.substr(a.first, a.second - a.first);
      const std::string tb = m.substr(b.first, b.second - b.first);
      m.replace(b.first, tb.size(), ta);  // back one first: offsets hold
      m.replace(a.first, ta.size(), tb);
      break;
    }
  }
  return m;
}

/// Loads every mutant of `text` with `load`; each must either throw
/// ccpred::Error or give a model whose serialization is a fixed point.
/// Any other exception (bad_alloc, length_error, ...) fails the test.
template <typename Load, typename Save>
void fuzz_reader(const std::string& text, std::uint64_t seed, Load load,
                 Save save) {
  Rng rng(seed);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string m = mutate(text, rng);
    try {
      const auto model = load(m);
      const std::string again = save(model);
      EXPECT_EQ(save(load(again)), again) << "mutant " << i;
      ++loaded;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes occur: the mutations reach past the header checks, and
  // not every flip lands somewhere fatal.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SerializeFuzzTest, GbMutantsLoadOrThrowError) {
  const auto data = test::make_nonlinear(60, 0.05, 3);
  GradientBoostingRegressor model(4);
  model.fit(data.x, data.y);
  fuzz_reader(serialize_gb(model), 2025,
              [](const std::string& t) { return deserialize_gb(t); },
              [](const GradientBoostingRegressor& m) { return serialize_gb(m); });
}

TEST(SerializeFuzzTest, RfMutantsLoadOrThrowError) {
  const auto data = test::make_nonlinear(60, 0.05, 4);
  RandomForestRegressor model(3);
  model.fit(data.x, data.y);
  fuzz_reader(serialize_rf(model), 2026,
              [](const std::string& t) { return deserialize_rf(t); },
              [](const RandomForestRegressor& m) { return serialize_rf(m); });
}

}  // namespace
}  // namespace ccpred::ml
