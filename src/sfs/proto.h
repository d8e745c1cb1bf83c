// SFS connection-level protocol constants.
//
// A connection carries framed messages {type, payload}.  File-server
// connections run: Connect -> Negotiate -> a stream of Encrypted messages
// (each a sealed RPC).  Authserver connections (sfskey's SRP password
// protocol, §2.4) run: SrpStart -> SrpFinish.  The server master hands
// each connection to the right subsystem by ServiceType, mirroring sfssd
// (§3.2).
#ifndef SFS_SRC_SFS_PROTO_H_
#define SFS_SRC_SFS_PROTO_H_

#include <cstdint>

#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/xdr/xdr.h"

namespace sfs {

enum class ServiceType : uint32_t {
  kFileServer = 1,
  kAuthServer = 2,
};

enum MsgType : uint32_t {
  kMsgConnect = 1,
  kMsgNegotiate = 2,
  kMsgEncrypted = 3,
  kMsgSrpStart = 4,
  kMsgSrpFinish = 5,
};

// Frames a connection message: {type, payload}.
inline util::Bytes FrameMessage(uint32_t type, const util::Bytes& payload) {
  xdr::Encoder enc;
  enc.PutUint32(type);
  enc.PutOpaque(payload);
  return enc.Take();
}

// Unframes a connection message, checking that it carries
// `expected_type`.
inline util::Result<util::Bytes> Unframe(uint32_t expected_type, const util::Bytes& message) {
  xdr::Decoder dec(message);
  ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  ASSIGN_OR_RETURN(util::Bytes payload, dec.GetOpaque());
  if (type != expected_type || !dec.AtEnd()) {
    return util::SecurityError("unexpected reply framing");
  }
  return payload;
}

enum ConnectResult : uint32_t {
  kConnectOk = 0,
  kConnectRevoked = 1,   // Reply carries a self-authenticating certificate.
  kConnectUnknown = 2,   // Server does not serve this (Location, HostID).
};

// Protocol dialect served for a (Location, HostID), announced in the
// connect reply.  sfssd hands connections to the matching subsidiary
// daemon (paper §3.2: "one can add new file system protocols to SFS
// without changing any of the existing software").
enum Dialect : uint32_t {
  kDialectReadWrite = 1,
  kDialectReadOnly = 2,
};

// The control program multiplexed on the secure channel alongside NFS.
inline constexpr uint32_t kSfsCtlProgram = 344400;
enum CtlProc : uint32_t {
  kCtlGetRoot = 1,  // {} -> {encrypted root file handle}
  kCtlLogin = 2,    // {seqno, AuthMsg} -> {authno}
};

// Names for the control program's procedures, for metric and span names.
// Covers the libsfs ID-mapping procedures declared in idmap.h (numbers
// 10/11) without depending on that header.
inline const char* CtlProcName(uint32_t proc) {
  switch (proc) {
    case kCtlGetRoot:
      return "GETROOT";
    case kCtlLogin:
      return "LOGIN";
    case 10:  // kCtlIdToName (idmap.h)
      return "IDTONAME";
    case 11:  // kCtlNameToId (idmap.h)
      return "NAMETOID";
    default:
      return "UNKNOWN";
  }
}

// Authentication number reserved for anonymous access (paper §3.1.2).
inline constexpr uint32_t kAnonymousAuthno = 0;

// Sequence numbers more than this far behind the maximum seen are
// rejected ("the server accepts out-of-order sequence numbers within a
// reasonable window").
inline constexpr uint32_t kSeqnoWindow = 64;

}  // namespace sfs

#endif  // SFS_SRC_SFS_PROTO_H_
