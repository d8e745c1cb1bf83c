// Server-side NFS3 RPC program: decodes calls, runs them against a
// FileSystemApi (MemFs), encodes replies, and charges the server CPU cost
// model per operation.
//
// Two entry points: HandleWire() decodes AUTH_UNIX-style credentials from
// the request and *trusts them* — the plain-NFS weakness the paper
// discusses — while Handle() takes credentials supplied out-of-band,
// which is how the SFS server substitutes authserver-mapped credentials
// (§3: "The server modifies requests slightly and tags them with
// appropriate credentials").
#ifndef SFS_SRC_NFS_PROGRAM_H_
#define SFS_SRC_NFS_PROGRAM_H_

#include "src/nfs/api.h"
#include "src/nfs/types.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/xdr/xdr.h"

namespace nfs {

class NfsProgram {
 public:
  NfsProgram(FileSystemApi* fs, sim::Clock* clock, const sim::CostModel* costs)
      : fs_(fs), clock_(clock), costs_(costs) {}

  // SFS read-write dialect: stamp every returned attribute structure with
  // a lease (paper §3.3).  Zero (the default) is plain NFS 3.
  void set_lease_ns(uint64_t lease_ns) { lease_ns_ = lease_ns; }

  // Wire entry: args = Credentials || proc-specific arguments.
  util::Result<util::Bytes> HandleWire(uint32_t proc, const util::Bytes& args);

  // Pre-authenticated entry: args carry only the proc-specific part.
  util::Result<util::Bytes> Handle(const Credentials& cred, uint32_t proc,
                                   const util::Bytes& args);

  uint64_t ops_handled() const { return ops_handled_; }

 private:
  // Runs `proc` on the arguments `dec` has not yet read.
  util::Result<util::Bytes> Dispatch(const Credentials& cred, uint32_t proc, xdr::Decoder* dec);

  FileSystemApi* fs_;
  sim::Clock* clock_;
  const sim::CostModel* costs_;
  uint64_t lease_ns_ = 0;
  uint64_t ops_handled_ = 0;
};

}  // namespace nfs

#endif  // SFS_SRC_NFS_PROGRAM_H_
