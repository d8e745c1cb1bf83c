// sfs_login: the key-management plane.  Repeated cold logins against one
// long-lived SfsServer; each builds a fresh client daemon (new ephemeral
// key), agent and VFS, and its first /sfs access runs the HostID check,
// the Figure 3 key negotiation and the Figure 4 user authentication.
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/sfs/proto.h"
#include "src/sfs/sfskey.h"

namespace perfbench {
namespace {

constexpr unsigned kPasswordCost = 6;  // eksblowfish cost (2^6 rounds).
constexpr uint64_t kMinProfileBytes = 512;
constexpr uint64_t kMaxProfileBytes = 16384;

}  // namespace

LoginParams LoginParams::FromSeed(uint64_t seed) {
  uint64_t s = seed ^ 0x10c1ULL;
  LoginParams p;
  p.users = 16;
  p.logins = 1000;
  p.srp_every = 16;
  p.input_seed = SplitMix64(&s);
  return p;
}

RepResult RunLogin(const LoginParams& params, bool trace) {
  RepResult r;
  const double setup_t0 = HostSeconds();
  obs::Registry registry;
  sim::Clock clock;
  const sim::CostModel costs = sim::CostModel::PentiumIII550();
  uint64_t s = params.input_seed;

  auth::AuthServer authserver;
  sfs::SfsServer::Options server_options;
  server_options.location = "login.bench";
  server_options.key_bits = 512;
  server_options.registry = &registry;
  sfs::SfsServer server(&clock, &costs, server_options, &authserver);
  const sfs::SelfCertifyingPath path = server.Path();

  // Users: a key each (fixed seeds, so set-up cost does not depend on
  // --seed), an SRP record, and a home directory holding a profile of
  // seeded size.
  struct User {
    std::string name;
    std::string password;
    uint32_t uid = 0;
    crypto::RabinPrivateKey key;
    util::Bytes profile;
  };
  std::vector<User> users(params.users);
  const util::Bytes pool = RandomPool(SplitMix64(&s), 2 * kMaxProfileBytes);
  crypto::Prng setup_prng(uint64_t{4242});
  for (uint32_t u = 0; u < params.users; ++u) {
    User& user = users[u];
    user.name = "user" + std::to_string(u);
    user.password = "pw for " + user.name;
    user.uid = 1000 + u;
    crypto::Prng key_prng(uint64_t{7001} + u);
    user.key = crypto::RabinPrivateKey::Generate(&key_prng, 512);
    auth::PublicUserRecord record;
    record.name = user.name;
    record.public_key = user.key.public_key().Serialize();
    record.credentials = nfs::Credentials::User(user.uid, {user.uid});
    bool ok = authserver.RegisterUser(record).ok() &&
              authserver
                  .UpdatePrivateRecord(user.name, sfs::MakeSrpRecord(user.password,
                                                                     kPasswordCost,
                                                                     user.key, &setup_prng))
                  .ok();
    const uint64_t len = UniformIn(&s, kMinProfileBytes, kMaxProfileBytes);
    const uint64_t from = SplitMix64(&s) % (pool.size() - len);
    user.profile.assign(pool.begin() + static_cast<long>(from),
                        pool.begin() + static_cast<long>(from + len));
    nfs::MemFs* fs = server.fs();
    const nfs::Credentials creds = nfs::Credentials::User(user.uid, {user.uid});
    nfs::FileHandle home;
    nfs::FileHandle fh;
    nfs::Fattr attr;
    ok = ok &&
         fs->Mkdir(fs->root_handle(), user.name, creds, 0755, &home, &attr) == nfs::Stat::kOk &&
         fs->Create(home, ".profile", creds, nfs::Sattr{}, &fh, &attr) == nfs::Stat::kOk &&
         fs->Write(fh, creds, 0, user.profile, /*stable=*/true, &attr) == nfs::Stat::kOk;
    if (!ok) {
      ++r.failed;
    }
  }
  // The client machine's local root, shared by every login.
  sim::Disk local_disk(&clock, sim::DiskProfile::Ibm18Es(), &registry);
  nfs::MemFs local_fs(&clock, &local_disk, nfs::MemFs::Options{});
  crypto::Prng srp_prng(SplitMix64(&s));
  r.setup_cpu_s = HostSeconds() - setup_t0;

  FrameLog frames;
  if (trace) {
    EnableSpans(&registry, &clock);
  }
  PhaseProbe probe(&registry, &clock, trace);
  std::vector<uint64_t> vfs_host_ns;
  std::vector<double> keygen_ms;
  std::vector<double> mount_ms;
  std::vector<double> mount_virt_ms;
  std::vector<double> srp_ms;
  uint64_t rejections = 0;
  const double run_t0 = HostSeconds();

  for (uint32_t i = 0; i < params.logins; ++i) {
    Pace();
    const User& user = users[SplitMix64(&s) % params.users];
    const uint64_t client_seed = SplitMix64(&s);
    const uint64_t v0 = clock.now_ns();
    bool ok = true;
    {
      sfs::SfsClient::Options client_options;
      client_options.ephemeral_key_bits = 512;
      client_options.prng_seed = client_seed;
      client_options.registry = &registry;
      double t0 = HostSeconds();
      sfs::SfsClient client(&clock, &costs, [&server](const std::string&) { return &server; },
                            client_options);
      keygen_ms.push_back((HostSeconds() - t0) * 1e3);
      if (trace) {
        client.set_interposer(&frames);
      }
      agent::Agent agent(user.name);
      agent.AddPrivateKey(user.key);
      vfs::Vfs vfs(&clock, &costs, &registry);
      vfs.MountRoot(&local_fs, local_fs.root_handle());
      vfs.EnableSfs(&client);
      const vfs::UserContext ctx = vfs::UserContext::For(user.uid, &agent);
      auto vfs_call = [&](auto call) {
        const uint64_t h0 = trace ? SteadyNs() : 0;
        auto result = call();
        if (trace) {
          vfs_host_ns.push_back(SteadyNs() - h0);
        }
        ok = ok && result.ok();
        return result;
      };

      // First touch of the self-certifying path: automount and login.
      const uint64_t mount_v0 = clock.now_ns();
      t0 = HostSeconds();
      vfs_call([&] { return vfs.Stat(ctx, path.FullPath()); });
      mount_ms.push_back((HostSeconds() - t0) * 1e3);
      mount_virt_ms.push_back(static_cast<double>(clock.now_ns() - mount_v0) / 1e6);
      auto mount = client.Mount(path);
      if (!mount.ok() || (*mount)->AuthnoFor(user.uid) == sfs::kAnonymousAuthno) {
        ++rejections;
        ok = false;
      }

      const std::string profile = path.FullPath() + "/" + user.name + "/.profile";
      auto attr = vfs_call([&] { return vfs.Stat(ctx, profile); });
      ok = ok && attr->size == user.profile.size();
      auto file = vfs_call([&] { return vfs.Open(ctx, profile, vfs::OpenFlags::ReadOnly()); });
      if (file.ok()) {
        const uint32_t len = static_cast<uint32_t>(user.profile.size());
        auto got = vfs_call([&] { return file->Pread(0, len); });
        ok = ok && *got == user.profile;
        r.read_bytes += len;
        vfs_call([&] { return file->Close(); });
      }

      if (params.srp_every != 0 && i % params.srp_every == params.srp_every - 1) {
        t0 = HostSeconds();
        auto fetched = sfs::SrpFetchKey(&clock, &server, sim::LinkProfile::Tcp(), user.name,
                                        user.password, &srp_prng);
        srp_ms.push_back((HostSeconds() - t0) * 1e3);
        ok = ok && fetched.ok() && fetched->self_certifying_path == path.FullPath() &&
             fetched->private_key.public_key().Serialize() ==
                 user.key.public_key().Serialize();
      }
    }
    r.op_virt_ns.push_back(clock.now_ns() - v0);
    ++r.ops;
    if (!ok) {
      ++r.failed;
    }
  }
  r.run_cpu_s = HostSeconds() - run_t0;

  PhaseProbe::Extras extras;
  extras.vfs_host_ns = &vfs_host_ns;
  extras.frame_sizes = &frames.sizes();
  probe.Finish(&r, extras);
  r.layers["crypto.keygen_host_ms"] = Median(keygen_ms);
  r.layers["sfs.mount.host_ms"] = Median(mount_ms);
  r.layers["sfs.mount.virt_ms"] = Median(mount_virt_ms);
  r.layers["sfskey.srp_fetch_host_ms"] = Median(srp_ms);
  r.layers["auth.rejections"] = static_cast<double>(rejections);
  return r;
}

}  // namespace perfbench
