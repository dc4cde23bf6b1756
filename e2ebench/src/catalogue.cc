// The benchmark's frozen pools, printed by tools/pick_pools.cc (see there).

#include "pools.h"

namespace e2ebench {

const Catalogue& ExactCatalogue() {
  static const Catalogue kCatalogue{
      "batch_exact", 3000, 10, 2500, 4500,
      {
          {12, 26, 36, 43, 45, 50, 58, 67, 73, 84, 97, 110},
          {1, 6, 10, 13, 15, 17, 20, 22, 27, 41, 42, 51},
          {9, 16, 23, 30, 39, 44, 46, 47, 53, 56, 59, 60},
          {2, 8, 19, 21, 25, 32, 34, 37, 49, 68, 72, 80},
      }};
  return kCatalogue;
}

const Catalogue& ServeBusCatalogue() {
  static const Catalogue kCatalogue{
      "serve_bus", 3000, 0, 150, 260,
      {
          {1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22,
           23, 24, 25, 26, 27},
      }};
  return kCatalogue;
}

const Catalogue& ServeDecoyCatalogue() {
  static const Catalogue kCatalogue{
      "serve_decoy", 3000, 10, 3000, 5000,
      {
          {1, 2, 6, 8, 9, 10, 11, 13, 15, 16, 17, 19},
      }};
  return kCatalogue;
}

}  // namespace e2ebench
