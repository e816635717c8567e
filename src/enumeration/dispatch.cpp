#include "enumeration/dispatch.hpp"

namespace paramount {

const char* to_string(EnumAlgorithm algorithm) {
  switch (algorithm) {
    case EnumAlgorithm::kBfs:
      return "bfs";
    case EnumAlgorithm::kLexical:
      return "lexical";
  }
  return "?";
}

}  // namespace paramount
