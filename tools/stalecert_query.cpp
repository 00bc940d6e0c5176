// stalecert_query: CLI client for a running staled daemon.
//
//   $ ./stalecert_query [--host A] [--port N] stale --domain D --date YYYY-MM-DD
//   $ ./stalecert_query key <spki-hex>
//   $ ./stalecert_query summary [--domain D]
//   $ ./stalecert_query revocation --serial <hex>
//   $ ./stalecert_query ingest <delta.scwd>
//   $ ./stalecert_query healthz | metrics | statusz | get <raw-target>
//
// `ingest` POSTs the .scwd bytes to /ingest on a feed-mode staled (see
// src/feed/README.md); everything else is a GET. Prints the response body
// to stdout and the HTTP status to stderr. --timeout-ms bounds the whole
// exchange (connect and every socket read/write); 0, the default, waits
// indefinitely.
// Exit codes: 0 on HTTP 200, 1 on any other status, 2 on usage errors,
// 3 when the daemon is unreachable, 4 when --timeout-ms expires.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "stalecert/net/client.hpp"

using namespace stalecert;

namespace {

int usage(const std::string& detail) {
  std::cerr
      << "usage: stalecert_query [--host ADDR] [--port N] [--timeout-ms N]"
         " <command> [args]\n"
         "commands:\n"
         "  stale --domain D --date YYYY-MM-DD   point-in-time staleness\n"
         "  key <spki-hex>                       certificates sharing a key\n"
         "  summary [--domain D]                 global or per-domain summary\n"
         "  revocation --serial <hex>            joined revocation status\n"
         "  ingest <delta.scwd>                  POST a delta to /ingest\n"
         "  healthz                              daemon liveness\n"
         "  metrics                              Prometheus metrics\n"
         "  statusz [--format html]              operational status page\n"
         "  get <target>                         raw GET (e.g. /v1/summary)\n";
  if (!detail.empty()) std::cerr << detail << '\n';
  return 2;
}

/// Percent-encodes a query-string value (unreserved characters pass).
std::string encode(const std::string& value) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : value) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                            c == '_' || c == '~';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xf]);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 8080;
  std::chrono::milliseconds timeout{0};
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" || arg == "--port" || arg == "--timeout-ms") {
      if (i + 1 >= argc) return usage(arg + " requires an argument");
      const std::string value = argv[++i];
      if (arg == "--host") {
        host = value;
      } else if (arg == "--port") {
        port = static_cast<std::uint16_t>(std::atoi(value.c_str()));
      } else {
        const long long ms = std::atoll(value.c_str());
        if (ms < 0) return usage("bad --timeout-ms value: " + value);
        timeout = std::chrono::milliseconds(ms);
      }
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return usage("missing command");

  // Named options after the command (--domain, --date, --serial).
  const std::string command = args[0];
  std::map<std::string, std::string> named;
  std::vector<std::string> positional;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].size() > 2 && args[i][0] == '-' && args[i][1] == '-') {
      if (i + 1 >= args.size()) return usage(args[i] + " requires a value");
      const std::string key = args[i].substr(2);
      named[key] = args[++i];
    } else {
      positional.push_back(args[i]);
    }
  }

  std::string target;
  std::string post_body;
  bool is_post = false;
  if (command == "stale") {
    if (named.count("domain") == 0 || named.count("date") == 0) {
      return usage("stale requires --domain and --date");
    }
    target = "/v1/stale?domain=" + encode(named["domain"]) +
             "&date=" + encode(named["date"]);
  } else if (command == "key") {
    if (positional.size() != 1) return usage("key requires one SPKI argument");
    target = "/v1/key/" + encode(positional[0]);
  } else if (command == "summary") {
    target = "/v1/summary";
    if (named.count("domain") != 0) target += "?domain=" + encode(named["domain"]);
  } else if (command == "revocation") {
    if (named.count("serial") == 0) return usage("revocation requires --serial");
    target = "/v1/revocation?serial=" + encode(named["serial"]);
  } else if (command == "ingest") {
    if (positional.size() != 1) return usage("ingest requires one .scwd path");
    std::ifstream in(positional[0], std::ios::binary);
    if (!in) {
      std::cerr << "stalecert_query: cannot read " << positional[0] << '\n';
      return 2;
    }
    post_body.assign((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    target = "/ingest";
    is_post = true;
  } else if (command == "healthz") {
    target = "/healthz";
  } else if (command == "metrics") {
    target = "/metrics";
  } else if (command == "statusz") {
    target = "/statusz";
    if (named.count("format") != 0) target += "?format=" + encode(named["format"]);
  } else if (command == "get") {
    if (positional.size() != 1) return usage("get requires one target argument");
    target = positional[0];
  } else {
    return usage("unknown command " + command);
  }

  try {
    net::HttpClient client(host, port, timeout);
    const auto result =
        is_post ? client.post(target, post_body, "application/octet-stream")
                : client.get(target);
    std::cerr << "HTTP " << result.status << " " << target << '\n';
    std::cout << result.body;
    return result.status == 200 ? 0 : 1;
  } catch (const net::NetTimeoutError& e) {
    // Before stalecert::Error: a timeout IS a NetError, but scripts need
    // to tell "slow" (4, retry later) from "gone" (3, page someone).
    std::cerr << "stalecert_query: " << e.what() << '\n';
    return 4;
  } catch (const stalecert::Error& e) {
    std::cerr << "stalecert_query: " << e.what() << '\n';
    return 3;
  }
}
