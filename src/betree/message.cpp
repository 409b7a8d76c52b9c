#include "betree/message.h"

#include "kv/dictionary.h"
#include "util/status.h"

namespace damkit::betree {

std::string encode_delta(int64_t d) {
  return kv::encode_counter(static_cast<uint64_t>(d));
}

std::optional<std::string> apply_message(std::optional<std::string> base,
                                         const MessageView& msg) {
  switch (msg.kind) {
    case MessageKind::kPut:
      return std::string(msg.payload);
    case MessageKind::kTombstone:
      return std::nullopt;
    case MessageKind::kUpsert: {
      const auto delta = static_cast<int64_t>(kv::decode_counter(msg.payload));
      return kv::add_to_counter(base, delta);
    }
  }
  DAMKIT_CHECK_MSG(false, "unknown message kind");
  return std::nullopt;
}

}  // namespace damkit::betree
