// sfs_bulk_rw: the large-file workload of Figure 9, driven through the
// VFS of a fully wired SFS client.  The file is far above the client
// data cache's per-file limit, so every byte crosses the sealed channel.
#include <algorithm>
#include <cstring>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kChunk = 8192;
constexpr size_t kPoolBytes = size_t{1} << 16;

// Per-call sizes: fixed when the bounds are equal (no draw), otherwise
// uniform in [io_min, io_max].
class SizeStream {
 public:
  explicit SizeStream(const BulkParams& p)
      : min_(p.io_min), max_(p.io_max), state_(p.size_seed) {}
  uint64_t Next() { return min_ == max_ ? min_ : UniformIn(&state_, min_, max_); }

 private:
  uint64_t min_;
  uint64_t max_;
  uint64_t state_;
};

// The workload's view of the file: what every read must return.
class Shadow {
 public:
  Shadow(uint64_t bytes, uint64_t seed)
      : data_(bytes, 0), pool_(RandomPool(seed, kPoolBytes * 2)) {}

  // Bytes for the n-th write, recorded at `offset`.
  util::Bytes Write(uint64_t n, uint64_t offset, uint64_t len) {
    const size_t from = (n * 4099) % kPoolBytes;
    util::Bytes out(pool_.begin() + static_cast<long>(from),
                    pool_.begin() + static_cast<long>(from + len));
    std::memcpy(data_.data() + offset, out.data(), len);
    return out;
  }

  bool Matches(uint64_t offset, const util::Bytes& got, uint64_t len) const {
    return got.size() == len && std::memcmp(data_.data() + offset, got.data(), len) == 0;
  }

 private:
  util::Bytes data_;
  util::Bytes pool_;
};

}  // namespace

BulkParams BulkParams::FromSeed(uint64_t seed) {
  uint64_t s = seed ^ 0xb0b0b0b0ULL;
  BulkParams p;
  p.file_bytes = UniformIn(&s, 496, 528) * kChunk;  // 3.9-4.1 MB.
  p.io_min = 4096;
  p.io_max = 12288;
  p.size_seed = SplitMix64(&s);
  p.content_seed = SplitMix64(&s);
  p.rand_write_seed = SplitMix64(&s);
  p.rand_read_seed = SplitMix64(&s);
  return p;
}

BulkParams BulkParams::Figure9() {
  BulkParams p;
  p.file_bytes = uint64_t{40} << 20;
  p.content_seed = 31337;
  p.rand_write_seed = 555;
  p.rand_read_seed = 556;
  return p;
}

RepResult RunBulkRw(const BulkParams& params, bool trace, BulkPhases* phases) {
  RepResult r;
  // The workload's own bookkeeping is not part of the timed set-up.
  Shadow shadow(params.file_bytes, params.content_seed);
  const double setup_t0 = HostSeconds();
  FrameLog frames;
  SfsBed bed(trace ? &frames : nullptr);
  const uint64_t mount_v0 = bed.clock()->now_ns();
  const double mount_t0 = HostSeconds();
  if (!bed.MakeWorkDir().ok() || !bed.UserAuthenticated()) {
    ++r.failed;
    r.layers["auth.rejections"] = 1;
  }
  r.layers["sfs.mount.host_ms"] = (HostSeconds() - mount_t0) * 1e3;
  r.layers["sfs.mount.virt_ms"] = static_cast<double>(bed.clock()->now_ns() - mount_v0) / 1e6;
  r.layers["crypto.keygen_host_ms"] = bed.keygen_host_ms();
  r.setup_cpu_s = HostSeconds() - setup_t0;

  if (trace) {
    EnableSpans(bed.registry(), bed.clock());
    frames.Clear();
  }
  PhaseProbe probe(bed.registry(), bed.clock(), trace);
  OpLog log(bed.clock(), &r, trace);
  vfs::Vfs* vfs = bed.vfs();
  const std::string path = bed.work_dir() + "/large.bin";
  const uint64_t total = params.file_bytes;
  const uint64_t nchunks = total / kChunk;
  SizeStream sizes(params);
  uint64_t writes = 0;

  // One phase: open, `body` over the open file, close.  Returns the
  // phase's virtual time and adds its host time to `cpu_s`.
  auto phase = [&](vfs::OpenFlags flags, double* cpu_s, auto body) {
    const double t0 = HostSeconds();
    const uint64_t v0 = bed.clock()->now_ns();
    auto file = log.Time([&] { return vfs->Open(bed.user(), path, flags); });
    if (file.ok()) {
      body(&*file);
      log.Time([&] { return file->Close(); });
    }
    *cpu_s += HostSeconds() - t0;
    return bed.clock()->now_ns() - v0;
  };
  auto write_at = [&](vfs::OpenFile* f, uint64_t off) {
    const uint64_t len = std::min(sizes.Next(), total - off);
    util::Bytes data = shadow.Write(writes++, off, len);
    log.Time([&] { return f->Pwrite(off, data); });
    r.write_bytes += len;
    return len;
  };
  auto read_at = [&](vfs::OpenFile* f, uint64_t off) {
    const uint64_t len = std::min(sizes.Next(), total - off);
    auto got = log.Time([&] { return f->Pread(off, static_cast<uint32_t>(len)); });
    if (got.ok() && !shadow.Matches(off, *got, len)) {
      log.Fail();
    }
    r.read_bytes += len;
    return len;
  };

  BulkPhases ph;
  ph.seq_write_ns = phase(vfs::OpenFlags::CreateRw(), &r.write_cpu_s, [&](vfs::OpenFile* f) {
    for (uint64_t off = 0; off < total;) {
      off += write_at(f, off);
    }
  });
  bed.DropClientCaches();
  ph.seq_read_ns = phase(vfs::OpenFlags::ReadOnly(), &r.read_cpu_s, [&](vfs::OpenFile* f) {
    for (uint64_t off = 0; off < total;) {
      off += read_at(f, off);
    }
  });
  bed.DropClientCaches();
  ph.rand_write_ns = phase(vfs::OpenFlags::WriteOnly(), &r.write_cpu_s, [&](vfs::OpenFile* f) {
    crypto::Prng prng(params.rand_write_seed);
    for (uint64_t i = 0; i < nchunks; ++i) {
      write_at(f, prng.RandomUint64(nchunks) * kChunk);
    }
  });
  bed.DropClientCaches();
  ph.rand_read_ns = phase(vfs::OpenFlags::ReadOnly(), &r.read_cpu_s, [&](vfs::OpenFile* f) {
    crypto::Prng prng(params.rand_read_seed);
    for (uint64_t i = 0; i < nchunks; ++i) {
      read_at(f, prng.RandomUint64(nchunks) * kChunk);
    }
  });
  r.run_cpu_s = r.read_cpu_s + r.write_cpu_s;
  r.write_virt_ns = ph.seq_write_ns + ph.rand_write_ns;
  r.read_virt_ns = ph.seq_read_ns + ph.rand_read_ns;
  if (phases != nullptr) {
    *phases = ph;
  }
  PhaseProbe::Extras extras;
  extras.vfs_host_ns = log.host_ns();
  extras.frame_sizes = &frames.sizes();
  probe.Finish(&r, extras);
  return r;
}

}  // namespace perfbench
