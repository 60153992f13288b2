// A tour of the core-external interconnect layer (Fig. 1 of the paper):
// generate a random topology over d695, inspect coupling neighborhoods,
// generate MA-model and reduced-MT-model SI test sets for it, and compact
// them.
//
//   topology_tour [--fanout=2] [--wires=16] [--k=2] [--seed=9]
#include <cstdint>
#include <iostream>
#include <map>
#include <stdexcept>

#include "interconnect/terminal_space.h"
#include "interconnect/topology.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
#include "util/cli.h"
#include "util/rng.h"

int main(int argc, char** argv) try {
  using namespace sitam;
  const CliArgs args(argc, argv);
  args.require_known({"seed", "fanout", "wires", "k"});

  const Soc soc = load_benchmark("d695");
  const TerminalSpace terminals(soc);
  Rng rng(static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{9})));

  TopologyConfig config;
  config.fanout = args.get_or("fanout", 2.0);
  config.wires_per_link =
      static_cast<int>(args.get_or("wires", std::int64_t{16}));
  const int k = static_cast<int>(args.get_or("k", std::int64_t{2}));

  const Topology topo = generate_topology(terminals, config, rng);
  std::cout << "d695 interconnect topology: " << topo.nets.size()
            << " nets";
  if (topo.bus) std::cout << " + " << topo.bus->width << "-bit shared bus";
  std::cout << "\n\n";

  // Which core pairs talk to each other?
  std::map<std::pair<int, int>, int> links;
  for (const Net& net : topo.nets) {
    ++links[{terminals.core_of(net.driver_terminal), net.receiver_core}];
  }
  std::cout << "core-to-core links (sender -> receiver: wires):\n";
  for (const auto& [pair, wires] : links) {
    std::cout << "  " << soc.modules[static_cast<std::size_t>(pair.first)].name
              << " -> "
              << soc.modules[static_cast<std::size_t>(pair.second)].name
              << ": " << wires << "\n";
  }

  // Coupling neighborhoods in the routing channel: nets from *different*
  // senders can be adjacent, which is exactly why hardware pattern
  // generators struggle with arbitrary topologies (§2).
  int cross_core_neighbor_pairs = 0;
  for (const Net& net : topo.nets) {
    for (const int other : topo.neighbors(net.id, 1)) {
      if (terminals.core_of(
              topo.nets[static_cast<std::size_t>(other)].driver_terminal) !=
          terminals.core_of(net.driver_terminal)) {
        ++cross_core_neighbor_pairs;
      }
    }
  }
  std::cout << "\nadjacent net pairs driven by different cores: "
            << cross_core_neighbor_pairs / 2 << "\n\n";

  // Fault-model test sets for this topology.
  const auto ma = generate_ma_patterns(topo, terminals, k);
  const auto mt = generate_mt_patterns(topo, terminals, k);
  std::cout << "MA model (window " << k << "): " << ma.size()
            << " vector pairs\n";
  std::cout << "reduced MT model (k=" << k << "): " << mt.size()
            << " vector pairs\n";

  const int bus_width = topo.bus ? topo.bus->width : 0;
  const auto ma_compact = compact_greedy(ma, terminals.total(), bus_width);
  const auto mt_compact = compact_greedy(mt, terminals.total(), bus_width);
  std::cout << "after greedy compaction: MA " << ma.size() << " -> "
            << ma_compact.patterns.size() << " (ratio "
            << ma_compact.stats.ratio() << "), MT " << mt.size() << " -> "
            << mt_compact.patterns.size() << " (ratio "
            << mt_compact.stats.ratio() << ")\n";
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
