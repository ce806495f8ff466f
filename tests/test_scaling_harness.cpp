// Unit tests for the scaling-sweep harness (bench/scaling_harness.hpp):
// deterministic sweep enumeration covering the declared axes, exact
// weak-scaling problem sizes, efficiency math on a synthetic timing table,
// and the metrics snapshot keys surviving the JSON round-trip of a real
// sweep point.

#include "../bench/scaling_harness.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string_view>

namespace sc = bench::scaling;

namespace {

/// Minimal recursive-descent JSON acceptor (same shape as the
/// test_instrument one): enough to check the harness emits valid JSON
/// without an external dependency in the image.
class json_parser {
 public:
  explicit json_parser(std::string_view s) : m_s(s) {}

  [[nodiscard]] bool accept()
  {
    if (!value())
      return false;
    ws();
    return m_i == m_s.size();
  }

 private:
  void ws()
  {
    while (m_i < m_s.size() &&
           (m_s[m_i] == ' ' || m_s[m_i] == '\t' || m_s[m_i] == '\n' ||
            m_s[m_i] == '\r'))
      ++m_i;
  }

  bool eat(char c)
  {
    ws();
    if (m_i < m_s.size() && m_s[m_i] == c) {
      ++m_i;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit)
  {
    if (m_s.substr(m_i, lit.size()) != lit)
      return false;
    m_i += lit.size();
    return true;
  }

  bool string_lit()
  {
    if (!eat('"'))
      return false;
    while (m_i < m_s.size() && m_s[m_i] != '"') {
      if (m_s[m_i] == '\\')
        ++m_i;
      ++m_i;
    }
    return m_i < m_s.size() && m_s[m_i++] == '"';
  }

  bool number()
  {
    std::size_t const start = m_i;
    if (m_i < m_s.size() && m_s[m_i] == '-')
      ++m_i;
    while (m_i < m_s.size() &&
           (std::isdigit(static_cast<unsigned char>(m_s[m_i])) != 0 ||
            m_s[m_i] == '.' || m_s[m_i] == 'e' || m_s[m_i] == 'E' ||
            m_s[m_i] == '+' || m_s[m_i] == '-'))
      ++m_i;
    return m_i > start;
  }

  bool object()
  {
    if (eat('}'))
      return true;
    do {
      if (!string_lit() || !eat(':') || !value())
        return false;
    } while (eat(','));
    return eat('}');
  }

  bool array()
  {
    if (eat(']'))
      return true;
    do {
      if (!value())
        return false;
    } while (eat(','));
    return eat(']');
  }

  bool value()
  {
    ws();
    if (m_i >= m_s.size())
      return false;
    char const c = m_s[m_i];
    if (c == '{') {
      ++m_i;
      return object();
    }
    if (c == '[') {
      ++m_i;
      return array();
    }
    if (c == '"')
      return string_lit();
    if (c == 't')
      return literal("true");
    if (c == 'f')
      return literal("false");
    if (c == 'n')
      return literal("null");
    return number();
  }

  std::string_view m_s;
  std::size_t m_i = 0;
};

sc::axes full_axes()
{
  sc::axes ax;
  ax.p_list = {1, 2, 4};
  ax.modes = {sc::scale_mode::strong, sc::scale_mode::weak};
  return ax;
}

} // namespace

TEST(ScalingHarness, EnumerationIsDeterministicAndCoversAxes)
{
  auto const ax = full_axes();
  auto const pts = sc::enumerate("k", 1000, ax);
  EXPECT_EQ(pts.size(), 2u * 3u);

  // Deterministic: same call, same order.
  auto const again = sc::enumerate("k", 1000, ax);
  ASSERT_EQ(again.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(sc::series_key(again[i]), sc::series_key(pts[i])) << i;
    EXPECT_EQ(again[i].p, pts[i].p) << i;
  }

  // Every declared axes combination appears exactly once.
  std::set<std::string> seen;
  for (auto const& pt : pts)
    seen.insert(sc::series_key(pt) + "/p" + std::to_string(pt.p));
  EXPECT_EQ(seen.size(), pts.size());

  // Within a series P ascends, so the P=1 baseline precedes its curve.
  std::string prev_series;
  unsigned prev_p = 0;
  for (auto const& pt : pts) {
    if (sc::series_key(pt) == prev_series)
      EXPECT_GT(pt.p, prev_p);
    else
      EXPECT_EQ(pt.p, 1u);
    prev_series = sc::series_key(pt);
    prev_p = pt.p;
  }
}

TEST(ScalingHarness, WeakScalingProblemSizeIsExact)
{
  EXPECT_EQ(sc::problem_size(sc::scale_mode::strong, 1000, 1), 1000u);
  EXPECT_EQ(sc::problem_size(sc::scale_mode::strong, 1000, 8), 1000u);
  EXPECT_EQ(sc::problem_size(sc::scale_mode::weak, 1000, 1), 1000u);
  EXPECT_EQ(sc::problem_size(sc::scale_mode::weak, 1000, 4), 4000u);
  EXPECT_EQ(sc::problem_size(sc::scale_mode::weak, 333, 7), 2331u);
}

TEST(ScalingHarness, EfficiencyMathOnSyntheticTimings)
{
  // Point math.
  EXPECT_DOUBLE_EQ(sc::efficiency(sc::scale_mode::strong, 4, 1.0, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(sc::efficiency(sc::scale_mode::strong, 4, 1.0, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(sc::efficiency(sc::scale_mode::weak, 4, 1.0, 1.25), 0.8);
  EXPECT_DOUBLE_EQ(sc::efficiency(sc::scale_mode::weak, 4, 1.0, 1.0), 1.0);
  // Unusable timings never divide by zero.
  EXPECT_DOUBLE_EQ(sc::efficiency(sc::scale_mode::strong, 4, 0.0, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(sc::efficiency(sc::scale_mode::strong, 4, 1.0, 0.0), 0.0);

  // Series resolution: each point gets its own series' P=1 baseline.
  auto mk = [](char const* kernel, sc::scale_mode m, unsigned p,
               double secs) {
    sc::point_result r;
    r.pt.kernel = kernel;
    r.pt.mode = m;
    r.pt.p = p;
    r.seconds = secs;
    return r;
  };
  std::vector<sc::point_result> rs{
      mk("a", sc::scale_mode::strong, 1, 2.0),
      mk("a", sc::scale_mode::strong, 4, 1.0),
      mk("a", sc::scale_mode::weak, 1, 2.0),
      mk("a", sc::scale_mode::weak, 4, 2.5),
      mk("b", sc::scale_mode::strong, 1, 8.0),
      mk("b", sc::scale_mode::strong, 4, 1.0),
  };
  sc::compute_efficiencies(rs);
  EXPECT_DOUBLE_EQ(rs[0].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(rs[1].efficiency, 0.5);   // 2 / (4 * 1)
  EXPECT_DOUBLE_EQ(rs[2].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(rs[3].efficiency, 0.8);   // 2 / 2.5
  EXPECT_DOUBLE_EQ(rs[4].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(rs[5].efficiency, 2.0);   // b's own baseline (8s)
}

TEST(ScalingHarness, MetricsKeysSurviveJsonRoundTrip)
{
  // A real sweep point: the metrics map is the collective global_snapshot
  // of that execute, and every key must reappear quoted in the JSON.
  sc::kernel_def k{"noop", 64, [](sc::sweep_point const&) {
                     return bench::timed_kernel([] {
                       stapl::rmi_fence();
                     });
                   }};
  sc::sweep_point pt;
  pt.kernel = "noop";
  pt.p = 2;
  pt.n = 64;
  auto res = sc::run_point(k, pt);
  EXPECT_FALSE(res.metrics.empty());

  auto const json = sc::to_json({res});
  EXPECT_TRUE(json_parser(json).accept()) << json;
  for (auto const& [key, value] : res.metrics) {
    EXPECT_NE(json.find('"' + key + "\": " + std::to_string(value)),
              std::string::npos)
        << key;
  }

  // Axes serialize as the documented fields.
  EXPECT_NE(json.find("\"kernel\": \"noop\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"strong\""), std::string::npos);
  EXPECT_NE(json.find("\"p\": 2"), std::string::npos);
}
