// sfs_small_files: many small files through the VFS of an SFS client.
// Messages are small, so per-message fixed costs dominate, and the
// lease-based attribute and data caches decide how many RPCs happen.
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPoolBytes = size_t{1} << 16;
constexpr uint32_t kMinBytes = 1024;
constexpr uint32_t kMaxBytes = 8192;

// A file name of seeded length: `prefix`, the index, then 0-31 letters.
// Names travel in LOOKUP, CREATE, RENAME and REMOVE, so their lengths
// spread those calls' wire sizes.
std::string Name(uint64_t* s, const char* prefix, uint32_t i) {
  std::string name = prefix + std::to_string(i) + "_";
  for (uint64_t n = SplitMix64(s) % 32; n > 0; --n) {
    name.push_back(static_cast<char>('a' + SplitMix64(s) % 26));
  }
  return name;
}

}  // namespace

SmallParams SmallParams::FromSeed(uint64_t seed) {
  uint64_t s = seed ^ 0x5a5a5a5aULL;
  SmallParams p;
  p.files = static_cast<uint32_t>(UniformIn(&s, 1950, 2050));
  p.dirs = static_cast<uint32_t>(UniformIn(&s, 4, 8));
  p.input_seed = SplitMix64(&s);
  return p;
}

RepResult RunSmallFiles(const SmallParams& params, bool trace) {
  RepResult r;
  // Inputs, generated before set-up is timed: paths under the work
  // directory, sizes, contents (slices of one pool) and the fate of each
  // file in the last phase.
  uint64_t s = params.input_seed;
  const util::Bytes pool = RandomPool(SplitMix64(&s), kPoolBytes + kMaxBytes);
  struct File {
    std::string path;
    std::string renamed;  // Empty: unlinked in the last phase.
    util::Bytes content;
  };
  std::vector<File> files(params.files);
  for (uint32_t i = 0; i < params.files; ++i) {
    File& f = files[i];
    f.path = "/d" + std::to_string(i % params.dirs) + "/" + Name(&s, "f", i);
    const uint64_t len = UniformIn(&s, kMinBytes, kMaxBytes);
    const uint64_t from = SplitMix64(&s) % kPoolBytes;
    f.content.assign(pool.begin() + static_cast<long>(from),
                     pool.begin() + static_cast<long>(from + len));
    if (SplitMix64(&s) % 2 == 0) {
      f.renamed = "/d" + std::to_string((i + 1) % params.dirs) + "/" + Name(&s, "r", i);
    }
  }

  const double setup_t0 = HostSeconds();
  FrameLog frames;
  SfsBed bed(trace ? &frames : nullptr);
  vfs::Vfs* vfs = bed.vfs();
  const vfs::UserContext& user = bed.user();
  const uint64_t mount_v0 = bed.clock()->now_ns();
  const double mount_t0 = HostSeconds();
  if (!bed.MakeWorkDir().ok() || !bed.UserAuthenticated()) {
    ++r.failed;
    r.layers["auth.rejections"] = 1;
  }
  r.layers["sfs.mount.host_ms"] = (HostSeconds() - mount_t0) * 1e3;
  r.layers["sfs.mount.virt_ms"] = static_cast<double>(bed.clock()->now_ns() - mount_v0) / 1e6;
  r.layers["crypto.keygen_host_ms"] = bed.keygen_host_ms();
  for (uint32_t d = 0; d < params.dirs; ++d) {
    if (!vfs->Mkdir(user, bed.work_dir() + "/d" + std::to_string(d)).ok()) {
      ++r.failed;
    }
  }
  r.setup_cpu_s = HostSeconds() - setup_t0;
  for (File& f : files) {
    f.path.insert(0, bed.work_dir());
    if (!f.renamed.empty()) {
      f.renamed.insert(0, bed.work_dir());
    }
  }

  if (trace) {
    EnableSpans(bed.registry(), bed.clock());
    frames.Clear();
  }
  PhaseProbe probe(bed.registry(), bed.clock(), trace);
  OpLog log(bed.clock(), &r, trace);
  uint64_t idle_ns = 0;

  auto timed = [&](double* cpu_s, uint64_t* virt_ns, auto body) {
    const double t0 = HostSeconds();
    const uint64_t v0 = bed.clock()->now_ns();
    body();
    *cpu_s += HostSeconds() - t0;
    *virt_ns += bed.clock()->now_ns() - v0;
  };
  auto stat_all = [&] {
    for (const File& f : files) {
      auto attr = log.Time([&] { return vfs->Stat(user, f.path); });
      if (attr.ok() && attr->size != f.content.size()) {
        log.Fail();
      }
    }
  };
  auto read_all = [&] {
    for (const File& f : files) {
      log.BeginGroup();
      auto file = log.Time([&] { return vfs->Open(user, f.path, vfs::OpenFlags::ReadOnly()); });
      if (file.ok()) {
        const uint32_t len = static_cast<uint32_t>(f.content.size());
        auto got = log.Time([&] { return file->Pread(0, len); });
        if (got.ok() && *got != f.content) {
          log.Fail();
        }
        r.read_bytes += len;
        log.Time([&] { return file->Close(); });
      }
      log.EndGroup();
    }
  };
  double other_cpu_s = 0;
  uint64_t other_virt_ns = 0;

  // Create and write every file.
  timed(&r.write_cpu_s, &r.write_virt_ns, [&] {
    for (const File& f : files) {
      log.BeginGroup();
      auto file = log.Time([&] { return vfs->Open(user, f.path, vfs::OpenFlags::CreateRw()); });
      if (file.ok()) {
        log.Time([&] { return file->Write(f.content); });
        r.write_bytes += f.content.size();
        log.Time([&] { return file->Close(); });
      }
      log.EndGroup();
    }
  });
  // Attributes come from the lease cache; data from the client cache.
  timed(&other_cpu_s, &other_virt_ns, stat_all);
  timed(&r.read_cpu_s, &r.read_virt_ns, read_all);
  // Let every attribute lease lapse: the next stats revalidate with
  // GETATTR.  The idle time is not part of the measured virtual time.
  const uint64_t lapse_ns = 61'000'000'000;
  bed.clock()->Advance(lapse_ns, obs::TimeCategory::kApp);
  idle_ns += lapse_ns;
  timed(&other_cpu_s, &other_virt_ns, stat_all);
  // Cold read: every file comes back over the channel.
  bed.DropClientCaches();
  timed(&r.read_cpu_s, &r.read_virt_ns, read_all);
  // Rename half the files into a neighbouring directory, unlink the rest.
  timed(&other_cpu_s, &other_virt_ns, [&] {
    for (const File& f : files) {
      if (f.renamed.empty()) {
        log.Time([&] { return vfs->Unlink(user, f.path); });
      } else {
        log.Time([&] { return vfs->Rename(user, f.path, f.renamed); });
      }
    }
  });
  r.run_cpu_s = r.write_cpu_s + r.read_cpu_s + other_cpu_s;

  PhaseProbe::Extras extras;
  extras.vfs_host_ns = log.host_ns();
  extras.frame_sizes = &frames.sizes();
  extras.idle_ns = idle_ns;
  probe.Finish(&r, extras);
  return r;
}

}  // namespace perfbench
