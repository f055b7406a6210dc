// SPDX-License-Identifier: MIT

#include "net/wire.h"

#include "common/check.h"
#include "common/serde.h"
#include "recovery/crc32.h"

namespace scec::net {
namespace {

constexpr char kMagic[4] = {'S', 'N', 'E', 'T'};

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status ProtocolError(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}

// Decodes a payload body through a BinaryReader over the payload view and
// verifies it was consumed exactly (trailing garbage is corruption, not
// padding).
template <typename Msg, typename Fn>
Result<Msg> DecodeBody(std::string_view payload, Fn&& fn) {
  Msg msg;
  BinaryReader reader(payload);
  SCEC_RETURN_IF_ERROR(fn(reader, msg));
  if (reader.remaining() != 0) {
    return ProtocolError("trailing bytes after message body");
  }
  return msg;
}

// Encodes one body into a string reserved to its exact size.
template <typename Fn>
std::string EncodeBody(size_t size, Fn&& fn) {
  std::string out;
  out.reserve(size);
  BinaryWriter writer(&out);
  fn(writer);
  return out;
}

}  // namespace

const char* WireTypeName(WireType type) {
  switch (type) {
    case WireType::kHello: return "HELLO";
    case WireType::kHelloAck: return "HELLO_ACK";
    case WireType::kShare: return "SHARE";
    case WireType::kShareAck: return "SHARE_ACK";
    case WireType::kQuery: return "QUERY";
    case WireType::kResponse: return "RESPONSE";
    case WireType::kRpcError: return "RPC_ERROR";
    case WireType::kHeartbeat: return "HEARTBEAT";
    case WireType::kHeartbeatAck: return "HEARTBEAT_ACK";
    case WireType::kCancel: return "CANCEL";
    case WireType::kDrain: return "DRAIN";
    case WireType::kDrainAck: return "DRAIN_ACK";
  }
  return "UNKNOWN";
}

bool IsKnownWireType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(WireType::kHello) &&
         raw <= static_cast<uint8_t>(WireType::kDrainAck);
}

std::string EncodeFrame(WireType type, std::string_view payload) {
  SCEC_CHECK_LE(payload.size(), static_cast<size_t>(kMaxPayloadLen));
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  BinaryWriter writer(&out);
  writer.WriteBytes({kMagic, sizeof(kMagic)});
  writer.WriteU8(kWireVersion);
  writer.WriteU8(static_cast<uint8_t>(type));
  writer.WriteU8(0);  // reserved
  writer.WriteU8(0);
  writer.WriteU32(static_cast<uint32_t>(payload.size()));
  writer.WriteU32(recovery::Crc32(payload.data(), payload.size()));
  writer.WriteU32(recovery::Crc32(out.data(), 16));
  writer.WriteBytes(payload);
  return out;
}

DecodeResult DecodeFrame(std::string_view buffer) {
  DecodeResult result;
  if (buffer.size() < kFrameHeaderSize) return result;  // kNeedMore
  auto fail = [&result](std::string msg) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError(std::move(msg));
    return result;
  };
  // Header CRC first: it covers magic/version/type/reserved/length/payload-
  // CRC, so any flipped header byte (including the length, which we must not
  // trust before validating) is caught here.
  if (recovery::Crc32(buffer.data(), 16) != GetU32(buffer.data() + 16)) {
    return fail("frame header checksum mismatch");
  }
  if (!buffer.starts_with(std::string_view(kMagic, sizeof(kMagic)))) {
    return fail("bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(buffer[4]);
  if (version != kWireVersion) {
    return fail("unsupported wire version " + std::to_string(version));
  }
  const uint8_t raw_type = static_cast<uint8_t>(buffer[5]);
  if (!IsKnownWireType(raw_type)) {
    return fail("unknown frame type " + std::to_string(raw_type));
  }
  if (buffer[6] != 0 || buffer[7] != 0) return fail("nonzero reserved bytes");
  const uint32_t payload_len = GetU32(buffer.data() + 8);
  if (payload_len > kMaxPayloadLen) {
    return fail("frame payload length " + std::to_string(payload_len) +
                " exceeds limit");
  }
  if (buffer.size() - kFrameHeaderSize < payload_len) {
    return result;  // kNeedMore
  }
  const std::string_view payload =
      buffer.substr(kFrameHeaderSize, payload_len);
  if (recovery::Crc32(payload.data(), payload.size()) !=
      GetU32(buffer.data() + 12)) {
    return fail("frame payload checksum mismatch");
  }
  result.progress = DecodeProgress::kFrame;
  result.frame.type = static_cast<WireType>(raw_type);
  result.frame.payload.assign(payload.data(), payload.size());
  result.consumed = kFrameHeaderSize + payload_len;
  return result;
}

Status FrameReader::Feed(std::string_view bytes, std::vector<Frame>* out) {
  SCEC_CHECK(out != nullptr);
  if (poisoned_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "frame reader poisoned by earlier corruption");
  }
  buffer_.append(bytes.data(), bytes.size());
  size_t offset = 0;
  while (true) {
    DecodeResult result =
        DecodeFrame(std::string_view(buffer_).substr(offset));
    if (result.progress == DecodeProgress::kError) {
      poisoned_ = true;
      buffer_.clear();
      return result.status;
    }
    if (result.progress == DecodeProgress::kNeedMore) break;
    out->push_back(std::move(result.frame));
    offset += result.consumed;
  }
  buffer_.erase(0, offset);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Message bodies.

std::string HelloMsg::Encode() const {
  return EncodeBody(16, [&](BinaryWriter& writer) {
    writer.WriteU64(coordinator_id);
    writer.WriteU64(session_epoch);
  });
}

Result<HelloMsg> HelloMsg::Decode(std::string_view payload) {
  return DecodeBody<HelloMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.coordinator_id));
    return reader.ReadU64(&msg.session_epoch);
  });
}

std::string HelloAckMsg::Encode() const {
  return EncodeBody(16, [&](BinaryWriter& writer) {
    writer.WriteU64(daemon_id);
    writer.WriteU64(shares_held);
  });
}

Result<HelloAckMsg> HelloAckMsg::Decode(std::string_view payload) {
  return DecodeBody<HelloAckMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.daemon_id));
    return reader.ReadU64(&msg.shares_held);
  });
}

std::string ShareMsg::Encode() const {
  SCEC_CHECK_EQ(values.size(), static_cast<size_t>(rows) * cols);
  return EncodeBody(20 + 8 * values.size(), [&](BinaryWriter& writer) {
    writer.WriteU64(share_id);
    writer.WriteU32(rows);
    writer.WriteU32(cols);
    writer.WriteDoubleVector(values);
  });
}

Result<ShareMsg> ShareMsg::Decode(std::string_view payload) {
  return DecodeBody<ShareMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.share_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU32(&msg.rows));
    SCEC_RETURN_IF_ERROR(reader.ReadU32(&msg.cols));
    SCEC_RETURN_IF_ERROR(reader.ReadDoubleVector(&msg.values));
    if (msg.values.size() != static_cast<size_t>(msg.rows) * msg.cols) {
      return ProtocolError("share dimensions disagree with value count");
    }
    return Status::Ok();
  });
}

std::string ShareAckMsg::Encode() const {
  return EncodeBody(13 + error.size(), [&](BinaryWriter& writer) {
    writer.WriteU64(share_id);
    writer.WriteU8(ok);
    writer.WriteString(error);
  });
}

Result<ShareAckMsg> ShareAckMsg::Decode(std::string_view payload) {
  return DecodeBody<ShareAckMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.share_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU8(&msg.ok));
    return reader.ReadString(&msg.error);
  });
}

std::string QueryMsg::Encode() const {
  return EncodeBody(20 + 8 * x.size(), [&](BinaryWriter& writer) {
    writer.WriteU64(rpc_id);
    writer.WriteU64(share_id);
    writer.WriteDoubleVector(x);
  });
}

Result<QueryMsg> QueryMsg::Decode(std::string_view payload) {
  return DecodeBody<QueryMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.rpc_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.share_id));
    return reader.ReadDoubleVector(&msg.x);
  });
}

std::string ResponseMsg::Encode() const {
  return EncodeBody(12 + 8 * values.size(), [&](BinaryWriter& writer) {
    writer.WriteU64(rpc_id);
    writer.WriteDoubleVector(values);
  });
}

Result<ResponseMsg> ResponseMsg::Decode(std::string_view payload) {
  return DecodeBody<ResponseMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.rpc_id));
    return reader.ReadDoubleVector(&msg.values);
  });
}

std::string RpcErrorMsg::Encode() const {
  return EncodeBody(13 + message.size(), [&](BinaryWriter& writer) {
    writer.WriteU64(rpc_id);
    writer.WriteU8(code);
    writer.WriteString(message);
  });
}

Result<RpcErrorMsg> RpcErrorMsg::Decode(std::string_view payload) {
  return DecodeBody<RpcErrorMsg>(payload, [](BinaryReader& reader, auto& msg) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.rpc_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU8(&msg.code));
    return reader.ReadString(&msg.message);
  });
}

std::string HeartbeatMsg::Encode() const {
  return EncodeBody(8, [&](BinaryWriter& writer) { writer.WriteU64(seq); });
}

Result<HeartbeatMsg> HeartbeatMsg::Decode(std::string_view payload) {
  return DecodeBody<HeartbeatMsg>(payload, [](BinaryReader& reader, auto& msg) {
    return reader.ReadU64(&msg.seq);
  });
}

std::string CancelMsg::Encode() const {
  return EncodeBody(8, [&](BinaryWriter& writer) { writer.WriteU64(rpc_id); });
}

Result<CancelMsg> CancelMsg::Decode(std::string_view payload) {
  return DecodeBody<CancelMsg>(payload, [](BinaryReader& reader, auto& msg) {
    return reader.ReadU64(&msg.rpc_id);
  });
}

}  // namespace scec::net
