// Barnes–Hut octree (paper §6.2: the n-body application is a parallel
// Barnes–Hut implementation).
//
// Builds an octree over the bodies, computes per-cell centres of mass, and
// evaluates approximate gravitational accelerations with the standard
// theta opening criterion. The traversal also counts the number of
// body–cell interactions per body — the cost measure ORB uses to
// partition work across ranks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apps/nbody/body.hpp"

namespace tlb::apps::nbody {

class Octree {
 public:
  /// Builds the tree over the given bodies. `leaf_capacity` bodies per
  /// leaf before subdividing.
  explicit Octree(std::span<const Body> bodies, int leaf_capacity = 8);

  struct ForceResult {
    Vec3 acceleration;
    std::uint64_t interactions = 0;  ///< body-cell + body-body evaluations
  };

  /// Approximate acceleration on `body` using opening angle `theta`;
  /// gravitational constant 1, Plummer softening `eps`.
  [[nodiscard]] ForceResult acceleration(const Body& body, double theta,
                                         double eps = 1e-3) const;

  /// Exact O(n) direct-sum acceleration over the tree's bodies (reference
  /// for accuracy tests).
  [[nodiscard]] static Vec3 direct_acceleration(std::span<const Body> bodies,
                                                const Body& body,
                                                double eps = 1e-3);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Total mass at the root (mass-conservation test hook).
  [[nodiscard]] double total_mass() const;

 private:
  struct Node {
    Vec3 center;       ///< geometric cell centre
    double half = 0.0; ///< half edge length
    Vec3 com;          ///< centre of mass
    double mass = 0.0;
    int first_child = -1;  ///< index of 8 consecutive children, -1 = leaf
    std::vector<int> bodies;  ///< body indices (leaves only)
  };

  void build(int node, std::vector<int> indices, int depth);
  void accumulate(int node, const Body& body, double theta, double eps,
                  ForceResult& out) const;

  std::vector<Node> nodes_;
  std::vector<Body> bodies_;
  int leaf_capacity_;
  static constexpr int kMaxDepth = 32;
};

}  // namespace tlb::apps::nbody
