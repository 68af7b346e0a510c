// The benchmark's parts. Each runs in its own process (so each gets its own
// thread budget and peak-memory figure), reads its workload seed from
// `--seed`, and prints one JSON result line last on stdout.
#ifndef MUSEBENCH_PARTS_H_
#define MUSEBENCH_PARTS_H_

#include "common.h"

namespace musebench {

int RunServe(const Flags& flags);
int RunTrain(const Flags& flags);
int RunPipeline(const Flags& flags);
/// Host record: ISA features, hardware threads and a sleep-overshoot probe.
int RunHost();

}  // namespace musebench

#endif  // MUSEBENCH_PARTS_H_
