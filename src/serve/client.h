#pragma once

#include <string>
#include <string_view>

#include "common/result.h"

namespace freshsel::serve {

/// Minimal blocking NDJSON client: connect, write one request line, read
/// one response line. Used by `freshsel query`, the stress suite (one
/// Client per worker thread - a Client is single-threaded by design), and
/// the lifecycle e2e test.
class Client {
 public:
  static Result<Client> ConnectUnix(const std::string& path);
  static Result<Client> ConnectTcp(const std::string& host, int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends `request` (a complete JSON object, no trailing newline) and
  /// blocks for the matching response line. Fails with IoError when the
  /// daemon hangs up first (e.g. after an oversized request).
  Result<std::string> Call(std::string_view request);

  /// Reads one more response line without sending anything (for tests that
  /// pipeline several requests before reading).
  Result<std::string> ReadLine();

  /// Sends without waiting; pair with ReadLine for pipelining.
  Status Send(std::string_view request);

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  ///< Received bytes past the last consumed newline.
};

}  // namespace freshsel::serve
