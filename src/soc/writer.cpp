#include "soc/writer.h"

#include <sstream>

namespace sitam {

std::string soc_to_text(const Soc& soc) {
  std::ostringstream os;
  os << "Soc " << soc.name << "\n";
  for (const Module& m : soc.modules) {
    os << "\nModule " << m.id << ' ' << m.name << "\n";
    os << "  Inputs " << m.inputs << "\n";
    os << "  Outputs " << m.outputs << "\n";
    if (m.bidirs != 0) os << "  Bidirs " << m.bidirs << "\n";
    if (!m.scan_chains.empty()) {
      os << "  ScanChains";
      std::size_t i = 0;
      while (i < m.scan_chains.size()) {
        std::size_t j = i;
        while (j < m.scan_chains.size() &&
               m.scan_chains[j] == m.scan_chains[i]) {
          ++j;
        }
        const std::size_t run = j - i;
        if (run > 1) {
          os << ' ' << run << 'x' << m.scan_chains[i];
        } else {
          os << ' ' << m.scan_chains[i];
        }
        i = j;
      }
      os << "\n";
    }
    os << "  Patterns " << m.patterns << "\n";
    if (m.bist_patterns != 0) {
      os << "  BistPatterns " << m.bist_patterns << "\n";
    }
    os << "End\n";
  }
  return os.str();
}

}  // namespace sitam
