// Serializer for the sitam `.soc` format; the inverse of parse_soc().
#pragma once

#include <string>

#include "soc/soc.h"

namespace sitam {

/// Renders the SOC in the `.soc` format; parse_soc(soc_to_text(s)) == s.
/// Runs of equal-length scan chains are emitted with the compact NxL syntax.
[[nodiscard]] std::string soc_to_text(const Soc& soc);

}  // namespace sitam
