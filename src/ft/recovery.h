// Durable checkpoint files (§3.4): atomic, CRC-checked publication of a process image and
// its verified read-back. The forked-cluster kill-and-recover harness
// (src/ft/cluster_recovery.h) publishes every member's images through these, so a SIGKILL
// can never expose a torn image.

#ifndef SRC_FT_RECOVERY_H_
#define SRC_FT_RECOVERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace naiad {

// Atomically publishes `image` at `path` (temp file + fsync + rename + parent-directory
// fsync, so the publication survives power loss, not just process death), appending an
// 8-byte footer [u32 CRC-32 of image][u32 footer magic] so readers can reject torn or
// bit-rotted images by content. Returns false on I/O error — including when the image was
// renamed into place but its durability could not be established.
bool WriteCheckpointFile(const std::string& path, std::span<const uint8_t> image);

// Why the read outcomes are split: the cluster recovery protocol reacts differently to
// each. "No checkpoint yet" (kAbsent) means restart from scratch; a damaged image
// (kCorrupt) under a manifest that names it means the manifest commit rule was violated
// and must fail loudly; a transient I/O error (kIoError) is retryable.
enum class CheckpointReadStatus : uint8_t {
  kOk = 0,       // image read and CRC-verified; footer stripped
  kAbsent = 1,   // no file at `path`
  kIoError = 2,  // open/read failed for a reason other than absence
  kCorrupt = 3,  // short read (shorter than the footer), bad footer magic, or CRC mismatch
};

struct CheckpointReadResult {
  CheckpointReadStatus status = CheckpointReadStatus::kAbsent;
  std::vector<uint8_t> image;  // footer stripped; empty unless status == kOk
  bool ok() const { return status == CheckpointReadStatus::kOk; }
};

// Reads and verifies a previously published image (see CheckpointReadStatus).
CheckpointReadResult ReadCheckpointFileEx(const std::string& path);

}  // namespace naiad

#endif  // SRC_FT_RECOVERY_H_
