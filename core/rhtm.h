#pragma once

// Umbrella header for the rhtm library: the TM universe, the three HTM
// substrates, the four paper protocols (HtmOnly, StandardHytm, Tl2,
// HybridTm/RH1) and the two extension hybrids (HybridNorec, PhasedTm),
// plus the substrate-bound aliases the benches use.
//
// Layering (see docs/ARCHITECTURE.md):
//   substrate (HtmEmul | HtmSim | HtmRtm)
//     -> universe (stripes + clock + substrate instance)
//       -> protocols (this header's classes)
//         -> STM sets (stm/read_set.h, stm/write_set.h)
//           -> workloads + bench harness (workloads/, bench/)

#include "core/cell.h"
#include "core/clock.h"
#include "core/attempt.h"
#include "core/contention.h"
#include "core/ext_hybrids.h"
#include "core/htm_emul.h"
#include "core/htm_only.h"
#include "core/htm_rtm.h"
#include "core/htm_sim.h"
#include "core/pmu.h"
#include "core/rh1.h"
#include "core/rng.h"
#include "core/standard_hytm.h"
#include "core/stats.h"
#include "core/stripe.h"
#include "core/timeseries.h"
#include "core/tl2.h"
#include "core/topology.h"
#include "core/trace.h"
#include "core/universe.h"

namespace rhtm {

// Substrate-bound aliases used by the micro and ablation benches.
using EmulHtmOnly = HtmOnly<HtmEmul>;
using EmulStandardHytm = StandardHytm<HtmEmul>;
using EmulTl2 = Tl2<HtmEmul>;
using EmulHybridTm = HybridTm<HtmEmul>;

using SimHtmOnly = HtmOnly<HtmSim>;
using SimStandardHytm = StandardHytm<HtmSim>;
using SimTl2 = Tl2<HtmSim>;
using SimHybridTm = HybridTm<HtmSim>;

using RtmHtmOnly = HtmOnly<HtmRtm>;
using RtmStandardHytm = StandardHytm<HtmRtm>;
using RtmTl2 = Tl2<HtmRtm>;
using RtmHybridTm = HybridTm<HtmRtm>;

}  // namespace rhtm
