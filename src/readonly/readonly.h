// The SFS read-only dialect (paper §2.4, §3.2).
//
// Public, read-only file systems prove their contents with *precomputed*
// digital signatures: the owner signs, offline, the root of a SHA-1 hash
// tree over the whole file system image.  Replica servers need only the
// image and the signature — never the private key — so "read-only file
// systems [can] be replicated on untrusted machines", and the server's
// cryptographic work is "proportional to the file system's size and rate
// of change, rather than to the number of clients connecting".  This is
// what makes interactive SFS certification authorities practical.
//
// Representation: every node (file-chunk list, directory, symlink) is an
// XDR blob addressed by its SHA-1 hash.  File contents hash in 8 KB
// chunks so partial reads verify.  The signed root record binds
// {"SFSRO", Location, version, root hash}; the version number prevents
// replicas from serving stale images once clients have seen newer ones.
#ifndef SFS_SRC_READONLY_READONLY_H_
#define SFS_SRC_READONLY_READONLY_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/rabin.h"
#include "src/nfs/api.h"
#include "src/obs/metrics.h"
#include "src/sfs/pathname.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace readonly {

inline constexpr uint64_t kChunkSize = 8192;

// Default bound on ReadOnlyClient's verified-node cache.  256 nodes is
// ~2 MB of 8 KB chunks — enough to hold the hash-tree spine plus the
// working set of a directory scan, small enough that a pathological
// walk over a huge image cannot grow client memory without bound.
inline constexpr size_t kDefaultVerifiedCacheCap = 256;

// A published, signed file system image.
struct SignedImage {
  std::map<std::string, util::Bytes> nodes;  // SHA-1 hash (raw bytes) -> node blob.
  util::Bytes root_hash;
  util::Bytes public_key;  // Serialized signing key.
  std::string location;
  uint64_t version = 0;
  util::Bytes signature;  // Over {"SFSRO", location, version, root_hash}.

  // Total bytes across all nodes (replica storage footprint).
  uint64_t TotalBytes() const;
};

// Offline publisher: builds the hash tree and signs the root.  Runs on
// the owner's machine, the only place the private key ever exists.
class ImageBuilder {
 public:
  ImageBuilder();

  // Node construction: ids are builder-local until Build().
  using NodeId = uint32_t;
  NodeId RootDir() const { return 0; }
  NodeId AddDir(NodeId parent, const std::string& name);
  util::Status AddFile(NodeId parent, const std::string& name, const util::Bytes& content,
                       uint32_t mode = 0644);
  util::Status AddSymlink(NodeId parent, const std::string& name, const std::string& target);

  // Hashes everything bottom-up and signs the root.
  SignedImage Build(const crypto::RabinPrivateKey& key, const std::string& location,
                    uint64_t version);

 private:
  struct PendingNode {
    nfs::FileType type = nfs::FileType::kDirectory;
    uint32_t mode = 0755;
    util::Bytes content;         // Files.
    std::string symlink_target;  // Symlinks.
    std::map<std::string, NodeId> children;
  };
  util::Bytes EmitNode(const PendingNode& node, SignedImage* image) const;

  std::vector<PendingNode> nodes_;
};

// The bytes the publisher signs.
util::Bytes RootRecordBody(const std::string& location, uint64_t version,
                           const util::Bytes& root_hash);

// Untrusted replica: serves GetRoot / GetNode.  Holds no private key.
class ReplicaServer : public sim::Service {
 public:
  ReplicaServer(sim::Clock* clock, const sim::CostModel* costs, SignedImage image)
      : clock_(clock), costs_(costs), image_(std::move(image)) {}

  util::Result<util::Bytes> Handle(util::Bytes request) override;

  // Adversarial-test hooks: corrupt a served node / swap the image.
  void CorruptNode(const util::Bytes& hash, size_t byte_index);
  void ReplaceImage(SignedImage image) { image_ = std::move(image); }
  const SignedImage& image() const { return image_; }

 private:
  sim::Clock* clock_;
  const sim::CostModel* costs_;
  SignedImage image_;
};

// Verifying client: implements the read-only subset of FileSystemApi; all
// data is checked against the hash tree before use, so a malicious
// replica can at worst deny service.
class ReadOnlyClient : public nfs::FileSystemApi {
 public:
  // `cache_capacity` bounds the verified-node cache (LRU eviction; the
  // minimum honored is 1 so the node being parsed is never evicted
  // under itself).  `registry` receives readonly.cache.{hits,evictions};
  // nullptr selects obs::Registry::Default().
  ReadOnlyClient(sim::Link* link, const sfs::SelfCertifyingPath& expected_path,
                 size_t cache_capacity = kDefaultVerifiedCacheCap,
                 obs::Registry* registry = nullptr);

  // Fetches and verifies the signed root record.  Must succeed before
  // file operations.
  util::Status Connect();

  const nfs::FileHandle& root_fh() const { return root_fh_; }
  uint64_t version() const { return version_; }

  nfs::Stat GetAttr(const nfs::FileHandle& fh, nfs::Fattr* attr) override;
  nfs::Stat Lookup(const nfs::FileHandle& dir, const std::string& name,
                   const nfs::Credentials& cred, nfs::FileHandle* out,
                   nfs::Fattr* attr) override;
  nfs::Stat Access(const nfs::FileHandle& fh, const nfs::Credentials& cred, uint32_t want,
                   uint32_t* allowed) override;
  nfs::Stat ReadLink(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                     std::string* target) override;
  nfs::Stat Read(const nfs::FileHandle& fh, const nfs::Credentials& cred, uint64_t offset,
                 uint32_t count, util::Bytes* data, bool* eof) override;
  nfs::Stat ReadDir(const nfs::FileHandle& dir, const nfs::Credentials& cred, uint64_t cookie,
                    uint32_t max_entries, std::vector<nfs::DirEntry>* entries,
                    bool* eof) override;
  nfs::Stat FsStat(const nfs::FileHandle& fh, uint64_t* total_bytes,
                   uint64_t* used_bytes) override;
  nfs::Stat Commit(const nfs::FileHandle& fh) override;

  // Mutations are structurally impossible in this dialect.
  nfs::Stat SetAttr(const nfs::FileHandle&, const nfs::Credentials&, const nfs::Sattr&,
                    nfs::Fattr*) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Write(const nfs::FileHandle&, const nfs::Credentials&, uint64_t,
                  const util::Bytes&, bool, nfs::Fattr*) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Create(const nfs::FileHandle&, const std::string&, const nfs::Credentials&,
                   const nfs::Sattr&, nfs::FileHandle*, nfs::Fattr*) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Mkdir(const nfs::FileHandle&, const std::string&, const nfs::Credentials&,
                  uint32_t, nfs::FileHandle*, nfs::Fattr*) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Symlink(const nfs::FileHandle&, const std::string&, const std::string&,
                    const nfs::Credentials&, nfs::FileHandle*, nfs::Fattr*) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Remove(const nfs::FileHandle&, const std::string&,
                   const nfs::Credentials&) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Rmdir(const nfs::FileHandle&, const std::string&,
                  const nfs::Credentials&) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Rename(const nfs::FileHandle&, const std::string&, const nfs::FileHandle&,
                   const std::string&, const nfs::Credentials&) override {
    return nfs::Stat::kReadOnlyFs;
  }
  nfs::Stat Link(const nfs::FileHandle&, const nfs::FileHandle&, const std::string&,
                 const nfs::Credentials&) override {
    return nfs::Stat::kReadOnlyFs;
  }

  uint64_t nodes_fetched() const { return nodes_fetched_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_evictions() const { return cache_evictions_; }
  size_t cache_size() const { return verified_cache_.size(); }

 private:
  struct CachedNode {
    util::Bytes blob;
    std::list<std::string>::iterator lru_it;  // Position in lru_.
  };

  // Fetches a node by hash, verifies it, caches it (evicting the
  // least-recently-used node when over capacity).  The returned pointer
  // is valid until the next FetchNode call: a just-fetched node sits at
  // the LRU front and is never the eviction victim.
  util::Result<const util::Bytes*> FetchNode(const util::Bytes& hash);

  sim::Link* link_;
  sfs::SelfCertifyingPath expected_path_;
  nfs::FileHandle root_fh_;
  uint64_t version_ = 0;
  bool connected_ = false;
  size_t cache_capacity_;
  std::map<std::string, CachedNode> verified_cache_;
  std::list<std::string> lru_;  // Front = most recently used.
  uint64_t nodes_fetched_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_evictions_ = 0;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_evictions_;
};

// Read-only protocol message types (continue the sfs::MsgType space).
enum RoMsgType : uint32_t {
  kMsgRoGetRoot = 16,
  kMsgRoGetNode = 17,
};

}  // namespace readonly

#endif  // SFS_SRC_READONLY_READONLY_H_
