// The four workloads of the repository benchmark.  Each Run* function is
// one repetition: it sets up fresh state (timed as set-up), runs the
// measured phase through the stack's public APIs, checks every output,
// and returns what it measured.  Inputs come only from the Params, which
// FromSeed derives from the benchmark's --seed.
#ifndef SFS_PERFBENCH_WORKLOADS_H_
#define SFS_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/harness.h"

namespace perfbench {

// sfs_bulk_rw: one SFS client writes, then reads, one large file
// sequentially and at random chunk offsets, dropping client caches
// between phases.
struct BulkParams {
  uint64_t file_bytes = 0;
  uint32_t io_min = 8192;  // Per-call size range; equal bounds fix the size.
  uint32_t io_max = 8192;
  uint64_t size_seed = 0;        // Splitmix stream for per-call sizes.
  uint64_t content_seed = 0;     // Bytes written.
  uint64_t rand_write_seed = 0;  // crypto::Prng choosing random-write chunks.
  uint64_t rand_read_seed = 0;   // crypto::Prng choosing random-read chunks.

  static BulkParams FromSeed(uint64_t seed);
  // Figure 9's SFS row: a 40 MB file in 8 KB calls, random chunks drawn
  // by crypto::Prng(555) and crypto::Prng(556).
  static BulkParams Figure9();
};

// Virtual time of each phase, open through close.
struct BulkPhases {
  uint64_t seq_write_ns = 0;
  uint64_t seq_read_ns = 0;
  uint64_t rand_write_ns = 0;
  uint64_t rand_read_ns = 0;
};

RepResult RunBulkRw(const BulkParams& params, bool trace, BulkPhases* phases = nullptr);

// sfs_small_files: a few thousand small files across a few directories:
// create+write, stat, warm read, stat after lease expiry, cold read, then
// rename or unlink.
struct SmallParams {
  uint32_t files = 0;
  uint32_t dirs = 0;
  uint64_t input_seed = 0;  // Names, sizes, contents, rename-or-unlink choices.

  static SmallParams FromSeed(uint64_t seed);
};

RepResult RunSmallFiles(const SmallParams& params, bool trace);

// nfs3_fleet: thousands of event-driven NFS3 clients (window 16, 80%
// reads, Zipfian open/close sessions with think time) sharing one
// serial sim::Host.
struct FleetParams {
  uint32_t clients = 0;
  uint64_t input_seed = 0;  // Per-client choice streams and file contents.

  static FleetParams FromSeed(uint64_t seed);
};

RepResult RunFleet(const FleetParams& params, bool trace);

// sfs_login: repeated cold logins against one long-lived SfsServer —
// fresh client daemon, agent and VFS per login, automount with HostID
// check, key negotiation and user authentication, a GETATTR and a read
// of the user's profile; every srp_every-th login also fetches the
// user's key with SRP.
struct LoginParams {
  uint32_t users = 0;
  uint32_t logins = 0;
  uint32_t srp_every = 0;
  uint64_t input_seed = 0;  // Profiles, login order, ephemeral-key seeds.

  static LoginParams FromSeed(uint64_t seed);
};

RepResult RunLogin(const LoginParams& params, bool trace);

}  // namespace perfbench

#endif  // SFS_PERFBENCH_WORKLOADS_H_
