#include "src/kvserver/protocol.h"

#include <charconv>
#include <vector>

namespace cuckoo {
namespace {

// Split a command line on single spaces (memcached tokens never embed
// spaces). Returns at most `max_tokens` tokens; extra content fails parsing.
bool Tokenize(std::string_view line, std::vector<std::string_view>* tokens,
              std::size_t max_tokens) {
  tokens->clear();
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t space = line.find(' ', pos);
    std::string_view token =
        space == std::string_view::npos ? line.substr(pos) : line.substr(pos, space - pos);
    if (token.empty()) {
      return false;  // double space or leading/trailing space
    }
    if (tokens->size() == max_tokens) {
      return false;
    }
    tokens->push_back(token);
    if (space == std::string_view::npos) {
      break;
    }
    pos = space + 1;
  }
  return !tokens->empty();
}

bool ParseU32(std::string_view token, std::uint32_t* out) {
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool ParseSize(std::string_view token, std::size_t* out) {
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool ParseU64(std::string_view token, std::uint64_t* out) {
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

}  // namespace

ParseStatus RequestParser::ParseCommandLine(std::string_view line, Request* out) {
  std::vector<std::string_view> tokens;
  if (!Tokenize(line, &tokens, 1 + kMaxGetKeys)) {
    return ParseStatus::kError;
  }
  const std::string_view command = tokens[0];
  if (command == "get" || command == "gets") {
    // get <key> [<key>...]
    if (tokens.size() < 2) {
      return ParseStatus::kError;
    }
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (tokens[i].size() > kMaxKeyLength) {
        return ParseStatus::kError;
      }
    }
    out->type = command == "get" ? RequestType::kGet : RequestType::kGets;
    out->keys.clear();
    out->keys.reserve(tokens.size() - 1);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      out->keys.emplace_back(tokens[i]);
    }
    out->key = out->keys.front();
    return ParseStatus::kOk;
  }
  if (command == "touch") {
    // touch <key> <exptime>
    if (tokens.size() != 3 || tokens[1].size() > kMaxKeyLength ||
        !ParseU32(tokens[2], &out->exptime)) {
      return ParseStatus::kError;
    }
    out->type = RequestType::kTouch;
    out->key.assign(tokens[1]);
    return ParseStatus::kOk;
  }
  if (command == "delete") {
    if (tokens.size() != 2 || tokens[1].size() > kMaxKeyLength) {
      return ParseStatus::kError;
    }
    out->type = RequestType::kDelete;
    out->key.assign(tokens[1]);
    return ParseStatus::kOk;
  }
  if (command == "stats") {
    // stats [<arg>] — the optional argument selects a sub-report ("detail",
    // "slowlog"); it is carried verbatim and validated by the service.
    if (tokens.size() > 2) {
      return ParseStatus::kError;
    }
    out->type = RequestType::kStats;
    out->key.clear();
    out->stats_arg.clear();
    if (tokens.size() == 2) {
      out->stats_arg.assign(tokens[1]);
    }
    return ParseStatus::kOk;
  }
  if (command == "bgsave") {
    if (tokens.size() != 1) {
      return ParseStatus::kError;
    }
    out->type = RequestType::kBgsave;
    out->key.clear();
    return ParseStatus::kOk;
  }
  if (command == "replicate") {
    // replicate <next_lsn> — first LSN the replica still needs (>= 1).
    if (tokens.size() != 2 || !ParseU64(tokens[1], &out->repl_lsn) || out->repl_lsn == 0) {
      return ParseStatus::kError;
    }
    out->type = RequestType::kReplicate;
    out->key.clear();
    return ParseStatus::kOk;
  }
  if (command == "replicaof") {
    // replicaof none | replicaof <host> <port>
    out->type = RequestType::kReplicaof;
    out->key.clear();
    out->repl_host.clear();
    out->repl_port = 0;
    if (tokens.size() == 2 && tokens[1] == "none") {
      return ParseStatus::kOk;
    }
    std::uint32_t port = 0;
    if (tokens.size() != 3 || tokens[1].empty() || !ParseU32(tokens[2], &port) ||
        port == 0 || port > 65535) {
      return ParseStatus::kError;
    }
    out->repl_host.assign(tokens[1]);
    out->repl_port = static_cast<std::uint16_t>(port);
    return ParseStatus::kOk;
  }
  if (command == "set" || command == "cas") {
    // set <key> <flags> <exptime> <bytes>  |  cas ... <bytes> <casid>
    const bool is_cas = command == "cas";
    const std::size_t expected_tokens = is_cas ? 6 : 5;
    // Parse the byte count first, independently of the other fields: even a
    // rejected command line announces a data block the client will send, and
    // those bytes must be swallowed or they get reparsed as commands and the
    // connection desyncs (memcached's CLIENT_ERROR flow).
    std::size_t bytes = 0;
    const bool bytes_ok = tokens.size() >= 5 && ParseSize(tokens[4], &bytes);
    const bool line_ok = tokens.size() == expected_tokens &&
                         tokens[1].size() <= kMaxKeyLength &&
                         ParseU32(tokens[2], &pending_.flags) &&
                         ParseU32(tokens[3], &pending_.exptime) && bytes_ok &&
                         bytes <= kMaxDataLength &&
                         (!is_cas || ParseU64(tokens[5], &pending_.cas_id));
    if (!line_ok) {
      if (bytes_ok) {
        if (bytes <= kMaxSwallowLength) {
          awaiting_data_ = true;
          discard_data_ = true;
          data_needed_ = bytes;
        } else {
          // The announced block is too large to buffer-and-discard; the
          // stream cannot be resynchronized. Flag the connection for close.
          broken_ = true;
          buffer_.clear();
        }
      }
      return ParseStatus::kError;
    }
    pending_.type = is_cas ? RequestType::kCas : RequestType::kSet;
    pending_.key.assign(tokens[1]);
    awaiting_data_ = true;
    data_needed_ = bytes;
    return ParseStatus::kNeedMore;  // caller loops; data handled in Next()
  }
  return ParseStatus::kError;
}

ParseStatus RequestParser::Next(Request* out) {
  for (;;) {
    if (broken_) {
      return ParseStatus::kError;
    }
    if (awaiting_data_) {
      if (buffer_.size() < data_needed_ + 2) {
        return ParseStatus::kNeedMore;
      }
      if (discard_data_) {
        // Data block of a rejected command: swallow payload + CRLF silently
        // and resume parsing at the next command line.
        buffer_.erase(0, data_needed_ + 2);
        awaiting_data_ = false;
        discard_data_ = false;
        continue;
      }
      if (buffer_[data_needed_] != '\r' || buffer_[data_needed_ + 1] != '\n') {
        // Data block not terminated properly: drop through the bad bytes.
        buffer_.erase(0, data_needed_ + 2);
        awaiting_data_ = false;
        return ParseStatus::kError;
      }
      pending_.data.assign(buffer_, 0, data_needed_);
      buffer_.erase(0, data_needed_ + 2);
      awaiting_data_ = false;
      *out = std::move(pending_);
      pending_ = Request{};
      return ParseStatus::kOk;
    }

    std::size_t eol = buffer_.find("\r\n");
    if (eol == std::string::npos) {
      // No complete line. Reject pathological unterminated lines early.
      // The longest legitimate line is a full multi-get: "gets " plus
      // kMaxGetKeys keys of kMaxKeyLength bytes each (space-separated).
      if (buffer_.size() > (kMaxKeyLength + 1) * kMaxGetKeys + 64) {
        buffer_.clear();
        return ParseStatus::kError;
      }
      return ParseStatus::kNeedMore;
    }
    std::string line = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 2);
    if (line.empty()) {
      continue;  // tolerate stray blank lines
    }
    ParseStatus status = ParseCommandLine(line, out);
    if (status == ParseStatus::kOk || status == ParseStatus::kError) {
      return status;
    }
    // kNeedMore after a set command line: loop to consume the data block.
  }
}

void AppendValueResponse(std::string_view key, std::uint32_t flags, std::string_view data,
                         std::string* out) {
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  out->append(std::to_string(flags));
  out->push_back(' ');
  out->append(std::to_string(data.size()));
  out->append("\r\n");
  out->append(data);
  out->append("\r\n");
}

void AppendValueResponseWithCas(std::string_view key, std::uint32_t flags,
                                std::string_view data, std::uint64_t cas_id,
                                std::string* out) {
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  out->append(std::to_string(flags));
  out->push_back(' ');
  out->append(std::to_string(data.size()));
  out->push_back(' ');
  out->append(std::to_string(cas_id));
  out->append("\r\n");
  out->append(data);
  out->append("\r\n");
}

void AppendEnd(std::string* out) { out->append("END\r\n"); }
void AppendStored(std::string* out) { out->append("STORED\r\n"); }
void AppendNotStored(std::string* out) { out->append("NOT_STORED\r\n"); }
void AppendDeleted(std::string* out) { out->append("DELETED\r\n"); }
void AppendNotFound(std::string* out) { out->append("NOT_FOUND\r\n"); }
void AppendError(std::string* out) { out->append("ERROR\r\n"); }
void AppendExists(std::string* out) { out->append("EXISTS\r\n"); }
void AppendTouched(std::string* out) { out->append("TOUCHED\r\n"); }
void AppendOk(std::string* out) { out->append("OK\r\n"); }
void AppendBusy(std::string* out) { out->append("BUSY\r\n"); }

void AppendServerError(std::string_view message, std::string* out) {
  out->append("SERVER_ERROR ");
  out->append(message);
  out->append("\r\n");
}

}  // namespace cuckoo
