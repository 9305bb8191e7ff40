// Shared test fixtures: small cubes mirroring the paper's running examples.

#ifndef F2DB_TESTS_TESTING_TEST_CUBES_H_
#define F2DB_TESTS_TESTING_TEST_CUBES_H_

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "cube/cube_schema.h"
#include "cube/graph.h"

namespace f2db::testing {

/// The Figure 4 mini-graph: one region R1 with three cities C1, C2, C3.
/// Base series are deterministic seasonal patterns plus optional noise.
inline TimeSeriesGraph MakeRegionCube(std::size_t length = 40,
                                      double noise = 0.0,
                                      std::uint64_t seed = 7) {
  Hierarchy location("location");
  Status s = location.AddLevel("city", {"C1", "C2", "C3"});
  (void)s;
  s = location.AddLevel("region", {"R1"});
  (void)s;
  s = location.SetParent(0, 0, 0);
  s = location.SetParent(0, 1, 0);
  s = location.SetParent(0, 2, 0);
  s = location.Finalize();

  CubeSchema schema;
  s = schema.AddHierarchy(std::move(location));
  auto graph = TimeSeriesGraph::Create(std::move(schema));
  Rng rng(seed);
  const double scales[3] = {10.0, 20.0, 30.0};
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<double> values(length);
    for (std::size_t t = 0; t < length; ++t) {
      const double season =
          1.0 + 0.3 * std::sin(2.0 * 3.14159265358979 * double(t) / 4.0);
      values[t] = scales[c] * season * (1.0 + 0.01 * double(t)) +
                  (noise > 0 ? rng.Gaussian(0.0, noise) : 0.0);
      if (values[t] < 0.1) values[t] = 0.1;
    }
    s = graph.value().SetBaseSeries(graph.value().base_nodes()[c],
                                    TimeSeries(values));
  }
  s = graph.value().BuildAggregates();
  return std::move(graph).value();
}

/// The Figure 2 cube: city -> region hierarchy (C1,C2 -> R1; C3,C4 -> R2)
/// crossed with two products (P1, P2). 8 base series, 45 nodes total.
inline TimeSeriesGraph MakeFigure2Cube(std::size_t length = 48,
                                       double noise = 0.05,
                                       std::uint64_t seed = 11) {
  Hierarchy location("location");
  Status s = location.AddLevel("city", {"C1", "C2", "C3", "C4"});
  s = location.AddLevel("region", {"R1", "R2"});
  s = location.SetParent(0, 0, 0);
  s = location.SetParent(0, 1, 0);
  s = location.SetParent(0, 2, 1);
  s = location.SetParent(0, 3, 1);
  s = location.Finalize();

  Hierarchy product("productdim");
  s = product.AddLevel("product", {"P1", "P2"});
  s = product.Finalize();

  CubeSchema schema;
  s = schema.AddHierarchy(std::move(location));
  s = schema.AddHierarchy(std::move(product));
  auto graph = TimeSeriesGraph::Create(std::move(schema));
  Rng rng(seed);
  for (NodeId node : graph.value().base_nodes()) {
    const NodeAddress address = graph.value().AddressOf(node);
    const double city_scale = 5.0 + 4.0 * double(address.coords[0].value);
    const double product_scale = address.coords[1].value == 0 ? 1.0 : 2.5;
    std::vector<double> values(length);
    for (std::size_t t = 0; t < length; ++t) {
      const double season =
          1.0 + 0.25 * std::sin(2.0 * 3.14159265358979 * double(t) / 12.0);
      values[t] = city_scale * product_scale * season *
                  (1.0 + rng.Gaussian(0.0, noise));
      if (values[t] < 0.1) values[t] = 0.1;
    }
    s = graph.value().SetBaseSeries(node, TimeSeries(values));
  }
  s = graph.value().BuildAggregates();
  (void)s;
  return std::move(graph).value();
}

/// Figure 2's city -> region hierarchy over hand-written base series that
/// hit the kernels' edge cases: C1 is zero or ~1e-13 at some steps
/// (skipped weight steps), C2 is zero throughout (zero history sum, zero
/// derivation weight), C3 is nonzero at one step only (fewer than two
/// weights) and C4 alternates sign. 7 nodes.
inline TimeSeriesGraph MakeZeroStepCube(std::size_t length = 40) {
  Hierarchy location("location");
  Status s = location.AddLevel("city", {"C1", "C2", "C3", "C4"});
  s = location.AddLevel("region", {"R1", "R2"});
  s = location.SetParent(0, 0, 0);
  s = location.SetParent(0, 1, 0);
  s = location.SetParent(0, 2, 1);
  s = location.SetParent(0, 3, 1);
  s = location.Finalize();

  CubeSchema schema;
  s = schema.AddHierarchy(std::move(location));
  auto graph = TimeSeriesGraph::Create(std::move(schema));
  std::vector<std::vector<double>> base(4, std::vector<double>(length, 0.0));
  for (std::size_t t = 0; t < length; ++t) {
    base[0][t] = t % 4 == 3 ? 0.0 : 10.0 + double(t % 5);
    if (t == 6) base[0][t] = 1e-13;  // below the 1e-12 zero threshold
    base[2][t] = t == 5 ? 7.0 : 0.0;
    base[3][t] = (t % 2 == 0 ? 1.0 : -1.0) * (3.0 + double(t % 3));
  }
  for (std::size_t c = 0; c < 4; ++c) {
    s = graph.value().SetBaseSeries(graph.value().base_nodes()[c],
                                    TimeSeries(base[c]));
  }
  s = graph.value().BuildAggregates();
  (void)s;
  return std::move(graph).value();
}

}  // namespace f2db::testing

#endif  // F2DB_TESTS_TESTING_TEST_CUBES_H_
