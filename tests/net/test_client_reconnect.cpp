// Client reconnect/backoff and server idle-timeout tests over real loopback
// sockets: typed ConnectError after bounded retries, riding over a server
// kill/restart with reconnect(), retry during a delayed restart, and the
// server-side idle reaper (net_idle_closed).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/check.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::net {
namespace {

using namespace std::chrono_literals;

NetServerConfig quick_config(int replicas = 1) {
  NetServerConfig cfg;
  cfg.pool.replicas = replicas;
  cfg.pool.serve.max_batch = 4;
  return cfg;
}

ModelFactory tiny_factory() {
  return [] { return serve::testfix::tiny_model(); };
}

/// A TCP port with nothing listening on it: bind an ephemeral listener,
/// read the port back, close it. (Racy in principle, dependable on a
/// loopback test host.)
std::uint16_t unused_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PP_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  PP_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
  socklen_t len = sizeof(addr);
  PP_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

RetryPolicy fast_retry(int max_retries) {
  RetryPolicy retry;
  retry.max_retries = max_retries;
  retry.initial_backoff = 5ms;
  retry.max_backoff = 40ms;
  return retry;
}

TEST(ClientReconnect, ConnectErrorCarriesTheAttemptCount) {
  const std::uint16_t port = unused_port();
  try {
    Client client("127.0.0.1", port, kDefaultMaxPayload, fast_retry(/*max_retries=*/2));
    FAIL() << "connect to a dead port unexpectedly succeeded";
  } catch (const ConnectError& e) {
    EXPECT_EQ(e.attempts(), 3);  // max_retries + 1
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"), std::string::npos) << e.what();
  }
}

TEST(ClientReconnect, SingleAttemptByDefault) {
  const std::uint16_t port = unused_port();
  try {
    Client client("127.0.0.1", port);
    FAIL() << "connect to a dead port unexpectedly succeeded";
  } catch (const ConnectError& e) {
    EXPECT_EQ(e.attempts(), 1);
  }
}

TEST(ClientReconnect, RejectsANonsensePolicy) {
  RetryPolicy bad;
  bad.max_retries = -1;
  EXPECT_THROW(Client("127.0.0.1", 1, kDefaultMaxPayload, bad), CheckError);
}

TEST(ClientReconnect, RidesOverAServerKillAndRestart) {
  auto server = std::make_unique<NetServer>(quick_config(), tiny_factory());
  const std::uint16_t port = server->port();

  Client client("127.0.0.1", port, kDefaultMaxPayload, fast_retry(/*max_retries=*/5));
  EXPECT_EQ(client.forecast(serve::testfix::random_input(3)).status, Status::kOk);

  // Kill the server; the established connection is now dead.
  server.reset();

  // Restart on the same port (SO_REUSEADDR) and reconnect the same client.
  NetServerConfig cfg = quick_config();
  cfg.port = port;
  NetServer restarted(cfg, tiny_factory());
  client.reconnect();
  const ForecastResponse resp = client.forecast(serve::testfix::random_input(4));
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.model_version, 1u);  // a fresh server instance
}

TEST(ClientReconnect, RetriesWhileTheServerIsStillComingBack) {
  auto server = std::make_unique<NetServer>(quick_config(), tiny_factory());
  const std::uint16_t port = server->port();
  Client client("127.0.0.1", port, kDefaultMaxPayload, fast_retry(/*max_retries=*/40));
  server.reset();

  // Bring the server back only after the client has started its retry loop;
  // the backoff (up to 40 * 40ms) must bridge the gap.
  std::unique_ptr<NetServer> revived;
  std::thread restarter([port, &revived] {
    std::this_thread::sleep_for(60ms);
    NetServerConfig cfg = quick_config();
    cfg.port = port;
    revived = std::make_unique<NetServer>(cfg, tiny_factory());
  });
  client.reconnect();  // blocks in the retry loop until the listener is back
  EXPECT_EQ(client.forecast(serve::testfix::random_input(5)).status, Status::kOk);
  restarter.join();
}

TEST(NetServerIdle, SilentConnectionsAreClosedAndCounted) {
  NetServerConfig cfg = quick_config();
  cfg.idle_timeout = 50ms;
  NetServer server(cfg, tiny_factory());

  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.forecast(serve::testfix::random_input(6)).status, Status::kOk);

  // Go silent past the timeout; the server reaps the connection.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.metrics().idle_closed.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.metrics().idle_closed.load(), 1u);
  // Using the dead connection fails with a typed error (at send or at the
  // EOF-detecting read), never garbage data.
  EXPECT_THROW(
      {
        client.send_metrics_request(99);
        (void)client.read_frame();
      },
      CheckError);
}

TEST(NetServerIdle, ActiveConnectionsStayOpen) {
  NetServerConfig cfg = quick_config();
  cfg.idle_timeout = 120ms;
  NetServer server(cfg, tiny_factory());

  Client client("127.0.0.1", server.port());
  // Keep traffic flowing at well under the timeout; the connection must
  // survive several timeout windows' worth of wall time.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.forecast(serve::testfix::random_input(7)).status, Status::kOk);
    std::this_thread::sleep_for(40ms);
  }
  EXPECT_EQ(server.metrics().idle_closed.load(), 0u);
}

}  // namespace
}  // namespace paintplace::net
