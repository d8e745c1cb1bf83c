#include "src/nfs/program.h"

#include "src/xdr/xdr.h"

namespace nfs {
namespace {

void PutStat(xdr::Encoder* enc, Stat s) { enc->PutUint32(static_cast<uint32_t>(s)); }

// Common tail for procedures returning (fh, fattr) on success.
util::Bytes EncodeHandleAttrResult(Stat s, const FileHandle& fh, const Fattr& attr) {
  xdr::Encoder enc;
  PutStat(&enc, s);
  if (s == Stat::kOk) {
    enc.PutOpaque(fh);
    attr.Encode(&enc);
  }
  return enc.Take();
}

util::Bytes EncodeStatOnly(Stat s) {
  xdr::Encoder enc;
  PutStat(&enc, s);
  return enc.Take();
}

}  // namespace

util::Result<util::Bytes> NfsProgram::HandleWire(uint32_t proc, const util::Bytes& args) {
  xdr::Decoder dec(args);
  ASSIGN_OR_RETURN(Credentials cred, Credentials::Decode(&dec));
  return Dispatch(cred, proc, &dec);
}

util::Result<util::Bytes> NfsProgram::Handle(const Credentials& cred, uint32_t proc,
                                             const util::Bytes& args) {
  xdr::Decoder dec(args);
  return Dispatch(cred, proc, &dec);
}

util::Result<util::Bytes> NfsProgram::Dispatch(const Credentials& cred, uint32_t proc,
                                               xdr::Decoder* dec) {
  clock_->Advance(costs_->nfs_server_op_ns, obs::TimeCategory::kCpu);
  ++ops_handled_;

  switch (proc) {
    case kProcNull: {
      return util::Bytes{};
    }
    case kProcGetAttr: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      Fattr attr;
      Stat s = fs_->GetAttr(fh, &attr);
      attr.lease_ns = lease_ns_;
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        attr.Encode(&enc);
      }
      return enc.Take();
    }
    case kProcSetAttr: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      ASSIGN_OR_RETURN(Sattr sattr, Sattr::Decode(dec));
      Fattr attr;
      Stat s = fs_->SetAttr(fh, cred, sattr, &attr);
      attr.lease_ns = lease_ns_;
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        attr.Encode(&enc);
      }
      return enc.Take();
    }
    case kProcLookup: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      FileHandle out;
      Fattr attr;
      Stat s = fs_->Lookup(dir, name, cred, &out, &attr);
      attr.lease_ns = lease_ns_;
      return EncodeHandleAttrResult(s, out, attr);
    }
    case kProcAccess: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      ASSIGN_OR_RETURN(uint32_t want, dec->GetUint32());
      uint32_t allowed = 0;
      Stat s = fs_->Access(fh, cred, want, &allowed);
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        enc.PutUint32(allowed);
      }
      return enc.Take();
    }
    case kProcReadLink: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      std::string target;
      Stat s = fs_->ReadLink(fh, cred, &target);
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        enc.PutString(target);
      }
      return enc.Take();
    }
    case kProcRead: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      ASSIGN_OR_RETURN(uint64_t offset, dec->GetUint64());
      ASSIGN_OR_RETURN(uint32_t count, dec->GetUint32());
      util::Bytes data;
      bool eof = false;
      Stat s = fs_->Read(fh, cred, offset, count, &data, &eof);
      // Sized exactly: stat, the data as an opaque, eof.
      xdr::Encoder enc(3 * 4 + xdr::PaddedSize(data.size()));
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        enc.PutOpaque(data);
        enc.PutBool(eof);
      }
      return enc.Take();
    }
    case kProcWrite: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      ASSIGN_OR_RETURN(uint64_t offset, dec->GetUint64());
      ASSIGN_OR_RETURN(bool stable, dec->GetBool());
      ASSIGN_OR_RETURN(util::Bytes data, dec->GetOpaque());
      Fattr attr;
      Stat s = fs_->Write(fh, cred, offset, data, stable, &attr);
      attr.lease_ns = lease_ns_;
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        attr.Encode(&enc);
        enc.PutUint64(fs_->WriteVerf());  // writeverf3 (RFC 1813 §3.3.7)
      }
      return enc.Take();
    }
    case kProcCreate: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      ASSIGN_OR_RETURN(Sattr sattr, Sattr::Decode(dec));
      FileHandle out;
      Fattr attr;
      Stat s = fs_->Create(dir, name, cred, sattr, &out, &attr);
      attr.lease_ns = lease_ns_;
      return EncodeHandleAttrResult(s, out, attr);
    }
    case kProcMkdir: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      ASSIGN_OR_RETURN(uint32_t mode, dec->GetUint32());
      FileHandle out;
      Fattr attr;
      Stat s = fs_->Mkdir(dir, name, cred, mode, &out, &attr);
      attr.lease_ns = lease_ns_;
      return EncodeHandleAttrResult(s, out, attr);
    }
    case kProcSymlink: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      ASSIGN_OR_RETURN(std::string target, dec->GetString());
      FileHandle out;
      Fattr attr;
      Stat s = fs_->Symlink(dir, name, target, cred, &out, &attr);
      attr.lease_ns = lease_ns_;
      return EncodeHandleAttrResult(s, out, attr);
    }
    case kProcRemove: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      return EncodeStatOnly(fs_->Remove(dir, name, cred));
    }
    case kProcRmdir: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      return EncodeStatOnly(fs_->Rmdir(dir, name, cred));
    }
    case kProcRename: {
      ASSIGN_OR_RETURN(FileHandle from_dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string from_name, dec->GetString());
      ASSIGN_OR_RETURN(FileHandle to_dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string to_name, dec->GetString());
      return EncodeStatOnly(fs_->Rename(from_dir, from_name, to_dir, to_name, cred));
    }
    case kProcLink: {
      ASSIGN_OR_RETURN(FileHandle target, dec->GetOpaque());
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(std::string name, dec->GetString());
      return EncodeStatOnly(fs_->Link(target, dir, name, cred));
    }
    case kProcReadDir: {
      ASSIGN_OR_RETURN(FileHandle dir, dec->GetOpaque());
      ASSIGN_OR_RETURN(uint64_t cookie, dec->GetUint64());
      ASSIGN_OR_RETURN(uint32_t max_entries, dec->GetUint32());
      std::vector<DirEntry> entries;
      bool eof = false;
      Stat s = fs_->ReadDir(dir, cred, cookie, max_entries, &entries, &eof);
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        enc.PutUint32(static_cast<uint32_t>(entries.size()));
        for (const DirEntry& e : entries) {
          e.Encode(&enc);
        }
        enc.PutBool(eof);
      }
      return enc.Take();
    }
    case kProcFsStat: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      uint64_t total = 0;
      uint64_t used = 0;
      Stat s = fs_->FsStat(fh, &total, &used);
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        enc.PutUint64(total);
        enc.PutUint64(used);
      }
      return enc.Take();
    }
    case kProcCommit: {
      ASSIGN_OR_RETURN(FileHandle fh, dec->GetOpaque());
      Stat s = fs_->Commit(fh);
      xdr::Encoder enc;
      PutStat(&enc, s);
      if (s == Stat::kOk) {
        enc.PutUint64(fs_->WriteVerf());  // writeverf3 (RFC 1813 §3.3.21)
      }
      return enc.Take();
    }
    default:
      return util::InvalidArgument("NFS: unknown procedure");
  }
}

}  // namespace nfs
