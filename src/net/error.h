// SPDX-License-Identifier: MIT
//
// Typed transport errors. The networked coordinator reacts differently to a
// deadline miss (retry the RPC), a reset connection (re-dispatch after
// the channel reconnects), and a partition (evict the device and re-plan), so
// the transport surfaces each as its own code instead of a flat failure —
// mirroring how the simulator distinguishes stragglers, crashes, and
// omissions.

#pragma once

#include <string>

#include "common/error.h"

namespace scec::net {

enum class NetError {
  kOk = 0,
  kTimeout,      // per-RPC deadline timer fired before a response landed
  kConnReset,    // TCP reset / EOF mid-stream; the channel will reconnect
  kPartitioned,  // heartbeat miss threshold crossed; peer presumed gone
  kCancelled,    // caller cancelled (slot settled, round ended, ...)
  kRefused,      // connect() refused / daemon not listening
  kProtocol,     // wire-format violation (bad magic/CRC/length/type)
  kDraining,     // endpoint is draining; no new work accepted
};

inline const char* NetErrorName(NetError e) {
  switch (e) {
    case NetError::kOk: return "OK";
    case NetError::kTimeout: return "TIMEOUT";
    case NetError::kConnReset: return "CONN_RESET";
    case NetError::kPartitioned: return "PARTITIONED";
    case NetError::kCancelled: return "CANCELLED";
    case NetError::kRefused: return "REFUSED";
    case NetError::kProtocol: return "PROTOCOL";
    case NetError::kDraining: return "DRAINING";
  }
  return "UNKNOWN";
}

// Maps a transport error onto the library-wide Status taxonomy for callers
// that propagate SCEC_RETURN_IF_ERROR chains.
inline Status ToStatus(NetError e, const std::string& detail) {
  switch (e) {
    case NetError::kOk:
      return Status::Ok();
    case NetError::kTimeout:
    case NetError::kConnReset:
    case NetError::kPartitioned:
    case NetError::kRefused:
      return Unavailable(std::string(NetErrorName(e)) + ": " + detail);
    case NetError::kCancelled:
      return Status(ErrorCode::kFailedPrecondition,
                    "CANCELLED: " + detail);
    case NetError::kProtocol:
      return Status(ErrorCode::kInvalidArgument, "PROTOCOL: " + detail);
    case NetError::kDraining:
      return ResourceExhausted("DRAINING: " + detail);
  }
  return Internal("unknown NetError: " + detail);
}

}  // namespace scec::net
