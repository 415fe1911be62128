#include "src/ft/recovery.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "src/base/hash.h"

namespace naiad {

namespace {

// Retries fsync across EINTR; false on any other failure.
bool FsyncFd(int fd) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

// fsyncs the directory containing `path`. A rename is only durable once the directory
// entry it rewrote is on disk; without this, a power loss after the rename can roll the
// directory back to the old (or no) entry even though the data blocks survived.
bool FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return false;
  }
  const bool ok = FsyncFd(dfd);
  ::close(dfd);
  return ok;
}

// Trailing footer of every published image: CRC-32 of the payload, then a magic word, both
// little-endian u32. The magic distinguishes "pre-footer-era file" (and arbitrary garbage)
// from "footer present but CRC mismatched" — both are kCorrupt, but the check order
// matters: verify the magic first so random tail bytes are never treated as a CRC.
constexpr uint32_t kFooterMagic = 0x4b504843u;  // "CHPK"
constexpr size_t kFooterBytes = 8;

void PutU32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | static_cast<uint32_t>(in[1]) << 8 |
         static_cast<uint32_t>(in[2]) << 16 | static_cast<uint32_t>(in[3]) << 24;
}

bool WriteAllFd(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool WriteCheckpointFile(const std::string& path, std::span<const uint8_t> image) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  uint8_t footer[kFooterBytes];
  PutU32(footer, Crc32(image.data(), image.size()));
  PutU32(footer + 4, kFooterMagic);
  if (!WriteAllFd(fd, image.data(), image.size()) ||
      !WriteAllFd(fd, footer, sizeof(footer))) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename is the publication point; fsync first so a kill after the rename cannot
  // leave a name pointing at unwritten data. The fd is closed unconditionally — the old
  // short-circuited `fsync || close || rename` chain leaked it when fsync failed.
  bool flushed = FsyncFd(fd);
  if (::close(fd) != 0) {
    flushed = false;
  }
  if (!flushed || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename alone is atomic but not durable: fsync the parent directory so the
  // published entry survives power loss. If this fails the image is visible but not
  // provably durable, and callers must treat the publish as failed.
  return FsyncParentDir(path);
}

CheckpointReadResult ReadCheckpointFileEx(const std::string& path) {
  CheckpointReadResult res;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    res.status = errno == ENOENT ? CheckpointReadStatus::kAbsent
                                 : CheckpointReadStatus::kIoError;
    return res;
  }
  std::vector<uint8_t> raw;
  uint8_t buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      res.status = CheckpointReadStatus::kIoError;
      return res;
    }
    if (n == 0) {
      break;
    }
    raw.insert(raw.end(), buf, buf + n);
  }
  ::close(fd);
  if (raw.size() < kFooterBytes) {
    res.status = CheckpointReadStatus::kCorrupt;
    return res;
  }
  const uint8_t* footer = raw.data() + raw.size() - kFooterBytes;
  if (GetU32(footer + 4) != kFooterMagic ||
      GetU32(footer) != Crc32(raw.data(), raw.size() - kFooterBytes)) {
    res.status = CheckpointReadStatus::kCorrupt;
    return res;
  }
  raw.resize(raw.size() - kFooterBytes);
  res.status = CheckpointReadStatus::kOk;
  res.image = std::move(raw);
  return res;
}

}  // namespace naiad
