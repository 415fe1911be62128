// Fault tolerance (§3.4): Checkpoint / Restore.
//
// Checkpointing follows the paper's recipe: pause worker and delivery threads, flush the
// message queues by delivering outstanding OnRecv events, then invoke Checkpoint on each
// stateful vertex. Because the queues are drained first, the persistent image needs only
// (a) vertex state, (b) pending notification requests, and (c) the open input epochs — no
// in-flight messages exist at the capture point.
//
// Restore targets a freshly-built, not-yet-started controller with an identical graph: the
// image is applied during Start() in place of the default initial pointstamps.
//
// Scope: per-process images. Multi-process checkpointing layers a global quiet point on
// top (src/ft/cluster_recovery.h runs the checkpoint barrier of src/net/cluster.h, then
// calls CheckpointProcess on every process with a cluster-consistent epoch tag, and every
// restart reassembles the cluster's tracker from per-process seeds, see RestoreProcess);
// the Fig. 7c benchmark exercises the single-process multi-worker path, as DESIGN.md
// documents.

#ifndef SRC_FT_CHECKPOINT_H_
#define SRC_FT_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "src/core/controller.h"

namespace naiad {

// Captures this process's computation state. The controller must be started; external
// producers must be quiescent for the duration (the caller's contract, §3.4).
// Worker threads are paused, drained, checkpointed, and resumed.
std::vector<uint8_t> CheckpointProcess(Controller& ctl);

// Describes one input stage's position so Restore can reopen it.
struct InputEpochs {
  StageId stage = 0;
  uint64_t next_epoch = 0;
  bool closed = false;
};

// Arranges for `ctl` (not started, same graph shape) to boot from `image` instead of from
// epoch 0: vertex state is restored and pending notification requests are re-registered.
// Returns the saved input positions so the caller can fast-forward its InputHandles
// (InputHandle::RestoreEpoch). Must be called before ctl.Start().
//
// Every process seeds its tracker with its own contributions only: +1 per open input it
// hosts at its saved epoch, +1 per pending notification. In a cluster, `seeds` (filled
// during Start; must outlive it) receives them, and the caller broadcasts them to every
// process through ClusterControl::RunSeedExchange while the workers are paused
// (Controller::StartPaused). Summing every process's contributions reassembles the
// cluster-wide tracker state, whether all processes restart from one checkpoint or
// survivors and a replacement restart from different logical times. With `seeds` null
// this must be the only process, and the contributions seed the local tracker at Start.
std::vector<InputEpochs> RestoreProcess(Controller& ctl, std::vector<uint8_t> image,
                                        std::vector<ProgressUpdate>* seeds = nullptr);

// The no-checkpoint counterpart for a cluster process booting from logical time zero:
// `seeds` receives its epoch-0 inputs and the initial notifications of its local vertices,
// under the same contribution rule.
void FreshStart(Controller& ctl, std::vector<ProgressUpdate>* seeds);

// Parses only the input-position header of a checkpoint image (no controller needed).
// Selective recovery uses this on the survivor's in-memory stall image to detect closed
// inputs — a kill that lands during the termination barrier — and fall back to a
// coordinated restart, since a closed input cannot be reopened mid-replay.
std::vector<InputEpochs> PeekImageInputs(const std::vector<uint8_t>& image);

}  // namespace naiad

#endif  // SRC_FT_CHECKPOINT_H_
