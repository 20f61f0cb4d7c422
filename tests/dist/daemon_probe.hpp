// What tests read from a running daemon: the raw answer to one loopback
// HTTP GET, and its rejection counters by error code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/net.hpp"

namespace mosaic::daemon_probe {

/// The raw answer (status line, headers, body) to `GET target` on the
/// loopback endpoint at `port`, read until the server closes.
inline std::string http_get(std::uint16_t port, const std::string& target) {
  auto conn = util::connect_to({"127.0.0.1", port}, 5.0);
  if (!conn.has_value()) return "connect failed";
  const std::string request = "GET " + target + " HTTP/1.1\r\n\r\n";
  if (!conn->send_all(request.data(), request.size()).ok()) {
    return "send failed";
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    auto got = conn->recv_some(buffer, sizeof buffer, 5.0);
    if (!got.has_value() || *got == 0) break;
    response.append(buffer, *got);
  }
  return response;
}

/// The body of a 200 answer; the status line of any other.
inline std::string ok_body(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 200", 0) != 0 ||
      head_end == std::string::npos) {
    return response.substr(0, response.find("\r\n"));
  }
  return response.substr(head_end + 4);
}

/// mosaic_daemon_rejected_total{code="..."} values by code, zeros left out.
inline std::map<std::string, std::size_t> daemon_rejections() {
  const std::string prefix =
      std::string(obs::names::kDaemonRejected) + "{code=\"";
  std::map<std::string, std::size_t> out;
  for (const obs::CounterSample& sample :
       obs::Registry::global().snapshot().counters) {
    if (sample.value == 0 || sample.name.rfind(prefix, 0) != 0) continue;
    const std::string code = sample.name.substr(
        prefix.size(), sample.name.size() - prefix.size() - 2);  // `"}`
    out[code] = sample.value;
  }
  return out;
}

}  // namespace mosaic::daemon_probe
