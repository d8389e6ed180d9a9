#include "ccpred/core/serialize.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "ccpred/common/error.hpp"

namespace ccpred::ml {
namespace {

constexpr const char* kTreeHeader = "ccpred-tree-v1";
constexpr const char* kGbHeader = "ccpred-gb-v1";
constexpr const char* kRfHeader = "ccpred-rf-v1";

// Shortest possible records, in bytes with their separators: a node is five
// one-character tokens, an importance one, a tree body a size line plus one
// node. Counts are checked against the bytes left before anything is sized
// from them, so a corrupt count cannot allocate more than the file could
// describe.
constexpr std::size_t kMinNodeBytes = 10;
constexpr std::size_t kMinImportanceBytes = 2;
constexpr std::size_t kMinTreeBytes = 4 + kMinNodeBytes;

/// Whitespace-separated tokens over one in-memory artifact. Separators are
/// the C-locale isspace set, so tabs and CRLF line ends read like spaces
/// and LF. Numbers go through std::from_chars — locale-free and correctly
/// rounded, like the strtod behind istream extraction — and must end at a
/// separator or at the end of the buffer.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// The next token; empty at the end of the input.
  std::string_view word() {
    skip_space();
    const char* begin = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {begin, static_cast<std::size_t>(pos_ - begin)};
  }

  /// Parses the next tokens into `out...` in order. False on a missing,
  /// malformed or out-of-range token, and on a non-finite double — the
  /// cases istream extraction refused too (from_chars alone would accept
  /// "inf" and "nan").
  template <typename... T>
  bool read(T&... out) {
    return (read_one(out) && ...);
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

 private:
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  void skip_space() {
    while (pos_ != end_ && is_space(*pos_)) ++pos_;
  }

  template <typename T>
  bool read_one(T& out) {
    skip_space();
    const auto [ptr, ec] = std::from_chars(pos_, end_, out);
    if (ec != std::errc() || (ptr != end_ && !is_space(*ptr))) return false;
    pos_ = ptr;
    if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
    return true;
  }

  const char* pos_;
  const char* end_;
};

void write_tree_body(std::ostream& out, const DecisionTreeRegressor& tree) {
  out.precision(17);
  const auto& nodes = tree.nodes();
  const auto& importance = tree.raw_importance();
  out << nodes.size() << ' ' << importance.size() << '\n';
  for (const auto& n : nodes) {
    out << n.feature << ' ' << n.threshold << ' ' << n.value << ' ' << n.left
        << ' ' << n.right << '\n';
  }
  for (std::size_t i = 0; i < importance.size(); ++i) {
    out << (i ? " " : "") << importance[i];
  }
  if (!importance.empty()) out << '\n';
}

DecisionTreeRegressor read_tree_body(TokenReader& in) {
  std::size_t n_nodes = 0;
  std::size_t n_features = 0;
  CCPRED_CHECK_MSG(in.read(n_nodes, n_features),
                   "tree body: missing size line");
  CCPRED_CHECK_MSG(n_nodes >= 1 && n_nodes < (1u << 26),
                   "tree body: implausible node count " << n_nodes);
  CCPRED_CHECK_MSG(n_nodes <= in.remaining() / kMinNodeBytes &&
                       n_features <= in.remaining() / kMinImportanceBytes,
                   "tree body: counts " << n_nodes << " " << n_features
                                        << " exceed the remaining bytes");
  std::vector<TreeNode> nodes(n_nodes);
  for (auto& node : nodes) {
    CCPRED_CHECK_MSG(in.read(node.feature, node.threshold, node.value,
                             node.left, node.right),
                     "tree body: truncated node record");
  }
  std::vector<double> importance(n_features);
  for (auto& v : importance) {
    CCPRED_CHECK_MSG(in.read(v), "tree body: truncated importance record");
  }
  return DecisionTreeRegressor::from_parts({}, std::move(nodes),
                                           std::move(importance));
}

/// Reads `n` tree bodies after a count that `what` names in errors.
std::vector<DecisionTreeRegressor> read_trees(TokenReader& in, std::size_t n,
                                              const char* what) {
  CCPRED_CHECK_MSG(n >= 1 && n < (1u << 20),
                   what << ": implausible tree count " << n);
  CCPRED_CHECK_MSG(n <= in.remaining() / kMinTreeBytes,
                   what << ": tree count " << n
                        << " exceeds the remaining bytes");
  std::vector<DecisionTreeRegressor> trees;
  trees.reserve(n);
  for (std::size_t t = 0; t < n; ++t) trees.push_back(read_tree_body(in));
  return trees;
}

}  // namespace

std::string serialize_tree(const DecisionTreeRegressor& tree) {
  CCPRED_CHECK_MSG(tree.is_fitted(), "cannot serialize an unfitted tree");
  std::ostringstream out;
  out << kTreeHeader << '\n';
  write_tree_body(out, tree);
  return out.str();
}

DecisionTreeRegressor deserialize_tree(std::string_view text) {
  TokenReader in(text);
  CCPRED_CHECK_MSG(in.word() == kTreeHeader, "not a ccpred tree file");
  return read_tree_body(in);
}

std::string serialize_gb(const GradientBoostingRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  std::ostringstream out;
  out.precision(17);
  out << kGbHeader << '\n'
      << model.stages().size() << ' ' << model.learning_rate() << ' '
      << model.base_prediction() << '\n';
  for (const auto& tree : model.stages()) write_tree_body(out, tree);
  return out.str();
}

GradientBoostingRegressor deserialize_gb(std::string_view text) {
  TokenReader in(text);
  CCPRED_CHECK_MSG(in.word() == kGbHeader, "not a ccpred GB model file");
  std::size_t n_stages = 0;
  double learning_rate = 0.0;
  double base = 0.0;
  CCPRED_CHECK_MSG(in.read(n_stages, learning_rate, base),
                   "GB model file: missing header line");
  return GradientBoostingRegressor::from_parts(
      learning_rate, base, read_trees(in, n_stages, "GB model file"));
}

std::string serialize_rf(const RandomForestRegressor& model) {
  CCPRED_CHECK_MSG(model.is_fitted(), "cannot serialize an unfitted model");
  std::ostringstream out;
  out << kRfHeader << '\n' << model.tree_count() << '\n';
  for (std::size_t t = 0; t < model.tree_count(); ++t) {
    write_tree_body(out, model.tree(t));
  }
  return out.str();
}

RandomForestRegressor deserialize_rf(std::string_view text) {
  TokenReader in(text);
  CCPRED_CHECK_MSG(in.word() == kRfHeader, "not a ccpred RF model file");
  std::size_t n_trees = 0;
  CCPRED_CHECK_MSG(in.read(n_trees), "RF model file: missing tree count");
  return RandomForestRegressor::from_parts(
      read_trees(in, n_trees, "RF model file"));
}

std::string read_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CCPRED_CHECK_MSG(in.good(), "cannot open model file: " << path);
  const std::streamsize size = in.tellg();
  CCPRED_CHECK_MSG(size >= 0, "cannot size model file: " << path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  CCPRED_CHECK_MSG(in.gcount() == size, "short read of model file: " << path);
  return bytes;
}

void save_rf(const RandomForestRegressor& model, const std::string& path) {
  std::ofstream out(path);
  CCPRED_CHECK_MSG(out.good(), "cannot open model file for write: " << path);
  out << serialize_rf(model);
  CCPRED_CHECK_MSG(out.good(), "I/O error writing model file: " << path);
}

RandomForestRegressor load_rf(const std::string& path) {
  return deserialize_rf(read_model_file(path));
}

void save_gb(const GradientBoostingRegressor& model, const std::string& path) {
  std::ofstream out(path);
  CCPRED_CHECK_MSG(out.good(), "cannot open model file for write: " << path);
  out << serialize_gb(model);
  CCPRED_CHECK_MSG(out.good(), "I/O error writing model file: " << path);
}

GradientBoostingRegressor load_gb(const std::string& path) {
  return deserialize_gb(read_model_file(path));
}

}  // namespace ccpred::ml
