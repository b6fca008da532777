#include "collectives/collectives.hpp"

#include <algorithm>
#include <vector>

#include "core/executor.hpp"
#include "mcast/kbinomial.hpp"
#include "mcast/scheme.hpp"

namespace irmc {
namespace {

/// All nodes except `root`.
std::vector<NodeId> Everyone(const System& sys, NodeId root) {
  std::vector<NodeId> dests;
  for (NodeId n = 0; n < sys.num_nodes(); ++n)
    if (n != root) dests.push_back(n);
  return dests;
}

/// Runs a binomial gather into node 0 on a live driver. Each leaf-to-
/// parent message is a 1-destination conventional send; a parent fires
/// upward once all of its children have arrived (plus `compute` cycles
/// per merge). `on_done(time)` fires when the root has combined all
/// arrivals.
class Gather {
 public:
  Gather(Engine& engine, McastDriver& driver, const System& sys,
         const SimConfig& cfg, Cycles compute,
         std::function<void(Cycles)> on_done)
      : engine_(engine),
        driver_(driver),
        sys_(sys),
        cfg_(cfg),
        compute_(compute),
        on_done_(std::move(on_done)) {
    const int n = sys.num_nodes();
    // Binomial tree over all nodes, rooted at 0 (abstract id == node id).
    BuildCappedBinomial(n - 1, n, tree_);
    for (NodeId leaf = 1; leaf < n; ++leaf)
      if (tree_[static_cast<std::size_t>(leaf)].children == 0) SendUp(leaf, 0);
    if (n == 1) on_done_(0);
  }

 private:
  void SendUp(NodeId from, Cycles when) {
    McastPlan plan;
    plan.scheme = SchemeKind::kUnicastBinomial;
    plan.root = from;
    plan.dests = {tree_[static_cast<std::size_t>(from)].parent};
    plan.children.assign(static_cast<std::size_t>(sys_.num_nodes()), {});
    plan.children[static_cast<std::size_t>(from)] = plan.dests;
    driver_.Launch(std::move(plan), when, [this](const MulticastResult& r) {
      OnArrive(r.deliveries.front().first, r.completion);
    });
  }

  void OnArrive(NodeId at, Cycles when) {
    int& pending = tree_[static_cast<std::size_t>(at)].children;
    IRMC_ENSURE(pending > 0);
    const Cycles merged = when + compute_;
    if (--pending == 0) {
      if (at == 0)
        on_done_(merged);
      else
        SendUp(at, merged);
    }
  }

  Engine& engine_;
  McastDriver& driver_;
  const System& sys_;
  const SimConfig& cfg_;
  Cycles compute_;
  std::function<void(Cycles)> on_done_;
  /// The gather tree; a node's `children` counts those yet to arrive.
  std::vector<BinomialNode> tree_;
};

Cycles GatherThenMulticast(const System& sys, const SimConfig& cfg,
                           SchemeKind scheme, Cycles compute) {
  Engine engine;
  McastDriver driver(engine, sys, cfg);
  const auto mcast = MakeScheme(scheme, cfg.host);
  Cycles completion = 0;
  Gather gather(engine, driver, sys, cfg, compute,
                [&](Cycles gathered) {
                  McastPlan plan = mcast->Plan(sys, 0, Everyone(sys, 0),
                                               cfg.message, cfg.headers);
                  driver.Launch(std::move(plan), gathered,
                                [&completion](const MulticastResult& r) {
                                  completion = r.completion;
                                });
                });
  engine.RunToQuiescence();
  IRMC_ENSURE(completion > 0);
  return completion;
}

}  // namespace

Cycles RunBroadcast(const System& sys, const SimConfig& cfg,
                    SchemeKind scheme, NodeId root) {
  Engine engine;
  McastDriver driver(engine, sys, cfg);
  const auto mcast = MakeScheme(scheme, cfg.host);
  McastPlan plan =
      mcast->Plan(sys, root, Everyone(sys, root), cfg.message, cfg.headers);
  Cycles completion = 0;
  driver.Launch(std::move(plan), 0, [&completion](const MulticastResult& r) {
    completion = r.completion;
  });
  engine.RunToQuiescence();
  return completion;
}

Cycles RunBarrier(const System& sys, const SimConfig& cfg,
                  SchemeKind release_scheme) {
  return GatherThenMulticast(sys, cfg, release_scheme, /*compute=*/0);
}

Cycles RunAllReduce(const System& sys, const SimConfig& cfg,
                    SchemeKind bcast_scheme, Cycles compute_per_merge) {
  return GatherThenMulticast(sys, cfg, bcast_scheme, compute_per_merge);
}

}  // namespace irmc
