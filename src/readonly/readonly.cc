#include "src/readonly/readonly.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/sha1.h"
#include "src/xdr/xdr.h"

namespace readonly {
namespace {

constexpr uint32_t kNodeFile = 1;
constexpr uint32_t kNodeDir = 2;
constexpr uint32_t kNodeSymlink = 5;

struct ParsedNode {
  uint32_t type = 0;
  uint32_t mode = 0;
  uint64_t size = 0;
  std::vector<util::Bytes> chunks;                      // Files.
  std::vector<std::pair<std::string, util::Bytes>> entries;  // Dirs (name, hash).
  std::string symlink_target;
};

util::Result<ParsedNode> ParseNode(const util::Bytes& blob) {
  xdr::Decoder dec(blob);
  ParsedNode node;
  ASSIGN_OR_RETURN(node.type, dec.GetUint32());
  ASSIGN_OR_RETURN(node.mode, dec.GetUint32());
  switch (node.type) {
    case kNodeFile: {
      ASSIGN_OR_RETURN(node.size, dec.GetUint64());
      ASSIGN_OR_RETURN(uint32_t nchunks, dec.GetUint32());
      if (nchunks != (node.size + kChunkSize - 1) / kChunkSize) {
        return util::SecurityError("file node chunk count inconsistent with size");
      }
      node.chunks.reserve(nchunks);
      for (uint32_t i = 0; i < nchunks; ++i) {
        ASSIGN_OR_RETURN(util::Bytes h, dec.GetOpaque());
        node.chunks.push_back(std::move(h));
      }
      break;
    }
    case kNodeDir: {
      ASSIGN_OR_RETURN(uint32_t nentries, dec.GetUint32());
      for (uint32_t i = 0; i < nentries; ++i) {
        ASSIGN_OR_RETURN(std::string name, dec.GetString());
        ASSIGN_OR_RETURN(util::Bytes h, dec.GetOpaque());
        node.entries.emplace_back(std::move(name), std::move(h));
      }
      break;
    }
    case kNodeSymlink: {
      ASSIGN_OR_RETURN(node.symlink_target, dec.GetString());
      break;
    }
    default:
      return util::SecurityError("unknown node type");
  }
  if (!dec.AtEnd()) {
    return util::SecurityError("trailing bytes in node");
  }
  return node;
}

nfs::Fattr AttrFor(const ParsedNode& node, const util::Bytes& hash) {
  nfs::Fattr attr;
  attr.type = static_cast<nfs::FileType>(node.type);
  attr.mode = node.mode;
  attr.nlink = node.type == kNodeDir ? 2 : 1;
  attr.size = node.type == kNodeFile    ? node.size
              : node.type == kNodeSymlink ? node.symlink_target.size()
                                          : node.entries.size();
  attr.used = attr.size;
  uint64_t fileid = 0;
  for (size_t i = 0; i < 8 && i < hash.size(); ++i) {
    fileid = (fileid << 8) | hash[i];
  }
  attr.fileid = fileid;
  // Content-addressed data never changes: grant an effectively infinite
  // lease so clients cache aggressively.
  attr.lease_ns = ~uint64_t{0} >> 1;
  return attr;
}

}  // namespace

util::Bytes RootRecordBody(const std::string& location, uint64_t version,
                           const util::Bytes& root_hash) {
  xdr::Encoder enc;
  enc.PutString("SFSRO");
  enc.PutString(location);
  enc.PutUint64(version);
  enc.PutOpaque(root_hash);
  return enc.Take();
}

uint64_t SignedImage::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [hash, blob] : nodes) {
    total += blob.size();
  }
  return total;
}

ImageBuilder::ImageBuilder() { nodes_.push_back(PendingNode{}); }

ImageBuilder::NodeId ImageBuilder::AddDir(NodeId parent, const std::string& name) {
  assert(parent < nodes_.size() && nodes_[parent].type == nfs::FileType::kDirectory);
  PendingNode dir;
  dir.type = nfs::FileType::kDirectory;
  nodes_.push_back(std::move(dir));
  NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  nodes_[parent].children[name] = id;
  return id;
}

util::Status ImageBuilder::AddFile(NodeId parent, const std::string& name,
                                   const util::Bytes& content, uint32_t mode) {
  if (parent >= nodes_.size() || nodes_[parent].type != nfs::FileType::kDirectory) {
    return util::InvalidArgument("parent is not a directory");
  }
  if (nodes_[parent].children.count(name) != 0) {
    return util::AlreadyExists(name);
  }
  PendingNode file;
  file.type = nfs::FileType::kRegular;
  file.mode = mode;
  file.content = content;
  nodes_.push_back(std::move(file));
  nodes_[parent].children[name] = static_cast<NodeId>(nodes_.size() - 1);
  return util::OkStatus();
}

util::Status ImageBuilder::AddSymlink(NodeId parent, const std::string& name,
                                      const std::string& target) {
  if (parent >= nodes_.size() || nodes_[parent].type != nfs::FileType::kDirectory) {
    return util::InvalidArgument("parent is not a directory");
  }
  if (nodes_[parent].children.count(name) != 0) {
    return util::AlreadyExists(name);
  }
  PendingNode link;
  link.type = nfs::FileType::kSymlink;
  link.mode = 0777;
  link.symlink_target = target;
  nodes_.push_back(std::move(link));
  nodes_[parent].children[name] = static_cast<NodeId>(nodes_.size() - 1);
  return util::OkStatus();
}

util::Bytes ImageBuilder::EmitNode(const PendingNode& node, SignedImage* image) const {
  xdr::Encoder enc;
  switch (node.type) {
    case nfs::FileType::kRegular: {
      enc.PutUint32(kNodeFile);
      enc.PutUint32(node.mode);
      enc.PutUint64(node.content.size());
      uint32_t nchunks =
          static_cast<uint32_t>((node.content.size() + kChunkSize - 1) / kChunkSize);
      enc.PutUint32(nchunks);
      for (uint32_t i = 0; i < nchunks; ++i) {
        size_t begin = static_cast<size_t>(i) * kChunkSize;
        size_t end = std::min(node.content.size(), begin + kChunkSize);
        util::Bytes chunk(node.content.begin() + static_cast<long>(begin),
                          node.content.begin() + static_cast<long>(end));
        util::Bytes chunk_hash = crypto::Sha1Digest(chunk);
        image->nodes[util::StringOf(chunk_hash)] = std::move(chunk);
        enc.PutOpaque(chunk_hash);
      }
      break;
    }
    case nfs::FileType::kDirectory: {
      enc.PutUint32(kNodeDir);
      enc.PutUint32(node.mode);
      enc.PutUint32(static_cast<uint32_t>(node.children.size()));
      for (const auto& [name, child_id] : node.children) {
        util::Bytes child_hash = EmitNode(nodes_[child_id], image);
        enc.PutString(name);
        enc.PutOpaque(child_hash);
      }
      break;
    }
    case nfs::FileType::kSymlink: {
      enc.PutUint32(kNodeSymlink);
      enc.PutUint32(node.mode);
      enc.PutString(node.symlink_target);
      break;
    }
  }
  util::Bytes blob = enc.Take();
  util::Bytes hash = crypto::Sha1Digest(blob);
  image->nodes[util::StringOf(hash)] = std::move(blob);
  return hash;
}

SignedImage ImageBuilder::Build(const crypto::RabinPrivateKey& key,
                                const std::string& location, uint64_t version) {
  SignedImage image;
  image.location = location;
  image.version = version;
  image.public_key = key.public_key().Serialize();
  image.root_hash = EmitNode(nodes_[0], &image);
  image.signature = key.Sign(RootRecordBody(location, version, image.root_hash));
  return image;
}

util::Result<util::Bytes> ReplicaServer::Handle(util::Bytes request) {
  clock_->Advance(costs_->nfs_server_op_ns, obs::TimeCategory::kCpu);
  xdr::Decoder dec(request);
  ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes payload, dec.GetOpaque());

  xdr::Encoder reply;
  reply.PutUint32(type);
  if (type == kMsgRoGetRoot) {
    xdr::Encoder body;
    body.PutOpaque(image_.public_key);
    body.PutString(image_.location);
    body.PutUint64(image_.version);
    body.PutOpaque(image_.root_hash);
    body.PutOpaque(image_.signature);
    reply.PutOpaque(body.Take());
    return reply.Take();
  }
  if (type == kMsgRoGetNode) {
    xdr::Decoder p(payload);
    ASSIGN_OR_RETURN(util::Bytes hash, p.GetOpaque());
    auto it = image_.nodes.find(util::StringOf(hash));
    if (it == image_.nodes.end()) {
      return util::NotFound("no such node");
    }
    xdr::Encoder body;
    body.PutOpaque(it->second);
    reply.PutOpaque(body.Take());
    return reply.Take();
  }
  return util::InvalidArgument("unknown read-only message");
}

void ReplicaServer::CorruptNode(const util::Bytes& hash, size_t byte_index) {
  auto it = image_.nodes.find(util::StringOf(hash));
  if (it != image_.nodes.end() && !it->second.empty()) {
    it->second[byte_index % it->second.size()] ^= 0x01;
  }
}

ReadOnlyClient::ReadOnlyClient(sim::Link* link, const sfs::SelfCertifyingPath& expected_path,
                               size_t cache_capacity, obs::Registry* registry)
    : link_(link),
      expected_path_(expected_path),
      cache_capacity_(std::max<size_t>(1, cache_capacity)) {
  obs::Registry* reg = registry != nullptr ? registry : obs::Registry::Default();
  m_cache_hits_ = reg->GetCounter("readonly.cache.hits");
  m_cache_evictions_ = reg->GetCounter("readonly.cache.evictions");
}

util::Status ReadOnlyClient::Connect() {
  xdr::Encoder req;
  req.PutUint32(kMsgRoGetRoot);
  req.PutOpaque({});
  ASSIGN_OR_RETURN(util::Bytes raw, link_->Roundtrip(req.Take()));
  xdr::Decoder dec(raw);
  ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes body_bytes, dec.GetOpaque());
  if (type != kMsgRoGetRoot) {
    return util::SecurityError("bad read-only framing");
  }
  xdr::Decoder body(body_bytes);
  ASSIGN_OR_RETURN(util::Bytes pubkey_bytes, body.GetOpaque());
  ASSIGN_OR_RETURN(std::string location, body.GetString());
  ASSIGN_OR_RETURN(uint64_t version, body.GetUint64());
  ASSIGN_OR_RETURN(util::Bytes root_hash, body.GetOpaque());
  ASSIGN_OR_RETURN(util::Bytes signature, body.GetOpaque());

  // Certify: the key must hash to the expected HostID...
  ASSIGN_OR_RETURN(crypto::RabinPublicKey pubkey,
                   crypto::RabinPublicKey::Deserialize(pubkey_bytes));
  if (location != expected_path_.location || !expected_path_.Certifies(pubkey)) {
    return util::SecurityError("read-only server key does not match HostID");
  }
  // ...and the (offline) signature must cover this exact root.
  RETURN_IF_ERROR(pubkey.Verify(RootRecordBody(location, version, root_hash), signature));
  // Freshness: never accept an image older than one already seen.
  if (connected_ && version < version_) {
    return util::SecurityError("replica served a rolled-back image version");
  }
  version_ = version;
  root_fh_ = root_hash;
  connected_ = true;
  verified_cache_.clear();
  lru_.clear();
  return util::OkStatus();
}

util::Result<const util::Bytes*> ReadOnlyClient::FetchNode(const util::Bytes& hash) {
  if (!connected_) {
    return util::FailedPrecondition("not connected");
  }
  std::string key = util::StringOf(hash);
  auto cached = verified_cache_.find(key);
  if (cached != verified_cache_.end()) {
    lru_.splice(lru_.begin(), lru_, cached->second.lru_it);
    ++cache_hits_;
    m_cache_hits_->Increment();
    return &cached->second.blob;
  }
  xdr::Encoder payload;
  payload.PutOpaque(hash);
  xdr::Encoder req;
  req.PutUint32(kMsgRoGetNode);
  req.PutOpaque(payload.Take());
  ASSIGN_OR_RETURN(util::Bytes raw, link_->Roundtrip(req.Take()));
  xdr::Decoder dec(raw);
  ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes body_bytes, dec.GetOpaque());
  if (type != kMsgRoGetNode) {
    return util::SecurityError("bad read-only framing");
  }
  xdr::Decoder body(body_bytes);
  ASSIGN_OR_RETURN(util::Bytes blob, body.GetOpaque());
  // The verification step: content addressing means any tampering is a
  // hash mismatch.
  if (crypto::Sha1Digest(blob) != hash) {
    return util::SecurityError("node failed hash verification (tampered replica?)");
  }
  ++nodes_fetched_;
  lru_.push_front(key);
  auto [it, inserted] = verified_cache_.emplace(
      std::move(key), CachedNode{std::move(blob), lru_.begin()});
  (void)inserted;
  // Evict from the cold end; capacity >= 1 guarantees the node just
  // inserted (front of lru_) survives, so the returned pointer stays
  // valid until the caller's next FetchNode.
  while (verified_cache_.size() > cache_capacity_) {
    verified_cache_.erase(lru_.back());
    lru_.pop_back();
    ++cache_evictions_;
    m_cache_evictions_->Increment();
  }
  return &it->second.blob;
}

nfs::Stat ReadOnlyClient::GetAttr(const nfs::FileHandle& fh, nfs::Fattr* attr) {
  auto blob = FetchNode(fh);
  if (!blob.ok()) {
    return nfs::Stat::kStale;
  }
  auto node = ParseNode(**blob);
  if (!node.ok()) {
    return nfs::Stat::kIo;
  }
  *attr = AttrFor(node.value(), fh);
  return nfs::Stat::kOk;
}

nfs::Stat ReadOnlyClient::Lookup(const nfs::FileHandle& dir, const std::string& name,
                                 const nfs::Credentials& cred, nfs::FileHandle* out,
                                 nfs::Fattr* attr) {
  (void)cred;  // Public file system: world-readable by construction.
  auto blob = FetchNode(dir);
  if (!blob.ok()) {
    return nfs::Stat::kStale;
  }
  auto node = ParseNode(**blob);
  if (!node.ok() || node->type != kNodeDir) {
    return nfs::Stat::kNotDir;
  }
  for (const auto& [entry_name, hash] : node->entries) {
    if (entry_name == name) {
      *out = hash;
      return GetAttr(hash, attr);
    }
  }
  return nfs::Stat::kNoEnt;
}

nfs::Stat ReadOnlyClient::Access(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                                 uint32_t want, uint32_t* allowed) {
  (void)fh;
  (void)cred;
  *allowed = want & (nfs::kAccessRead | nfs::kAccessLookup | nfs::kAccessExecute);
  return nfs::Stat::kOk;
}

nfs::Stat ReadOnlyClient::ReadLink(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                                   std::string* target) {
  (void)cred;
  auto blob = FetchNode(fh);
  if (!blob.ok()) {
    return nfs::Stat::kStale;
  }
  auto node = ParseNode(**blob);
  if (!node.ok() || node->type != kNodeSymlink) {
    return nfs::Stat::kInval;
  }
  *target = node->symlink_target;
  return nfs::Stat::kOk;
}

nfs::Stat ReadOnlyClient::Read(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                               uint64_t offset, uint32_t count, util::Bytes* data, bool* eof) {
  (void)cred;
  auto blob = FetchNode(fh);
  if (!blob.ok()) {
    return nfs::Stat::kStale;
  }
  auto node = ParseNode(**blob);
  if (!node.ok()) {
    return nfs::Stat::kIo;
  }
  if (node->type == kNodeDir) {
    return nfs::Stat::kIsDir;
  }
  if (node->type != kNodeFile) {
    return nfs::Stat::kInval;
  }
  data->clear();
  if (offset >= node->size) {
    *eof = true;
    return nfs::Stat::kOk;
  }
  uint64_t len = std::min<uint64_t>(count, node->size - offset);
  uint64_t first = offset / kChunkSize;
  uint64_t last = (offset + len - 1) / kChunkSize;
  for (uint64_t i = first; i <= last; ++i) {
    auto chunk = FetchNode(node->chunks[i]);
    if (!chunk.ok()) {
      return nfs::Stat::kIo;
    }
    uint64_t chunk_start = i * kChunkSize;
    uint64_t from = std::max(offset, chunk_start);
    uint64_t to = std::min(offset + len, chunk_start + (*chunk)->size());
    for (uint64_t pos = from; pos < to; ++pos) {
      data->push_back((**chunk)[pos - chunk_start]);
    }
  }
  *eof = offset + len >= node->size;
  return nfs::Stat::kOk;
}

nfs::Stat ReadOnlyClient::ReadDir(const nfs::FileHandle& dir, const nfs::Credentials& cred,
                                  uint64_t cookie, uint32_t max_entries,
                                  std::vector<nfs::DirEntry>* entries, bool* eof) {
  (void)cred;
  auto blob = FetchNode(dir);
  if (!blob.ok()) {
    return nfs::Stat::kStale;
  }
  auto node = ParseNode(**blob);
  if (!node.ok() || node->type != kNodeDir) {
    return nfs::Stat::kNotDir;
  }
  entries->clear();
  *eof = true;
  uint64_t index = 0;
  for (const auto& [name, hash] : node->entries) {
    ++index;
    if (index <= cookie) {
      continue;
    }
    if (entries->size() >= max_entries) {
      *eof = false;
      break;
    }
    uint64_t fileid = 0;
    for (size_t i = 0; i < 8 && i < hash.size(); ++i) {
      fileid = (fileid << 8) | hash[i];
    }
    entries->push_back(nfs::DirEntry{fileid, name, index});
  }
  return nfs::Stat::kOk;
}

nfs::Stat ReadOnlyClient::FsStat(const nfs::FileHandle& fh, uint64_t* total_bytes,
                                 uint64_t* used_bytes) {
  (void)fh;
  *total_bytes = 0;
  *used_bytes = 0;
  return nfs::Stat::kOk;
}

nfs::Stat ReadOnlyClient::Commit(const nfs::FileHandle& fh) {
  (void)fh;
  return nfs::Stat::kOk;
}

}  // namespace readonly
