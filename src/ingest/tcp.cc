#include "ingest/tcp.h"

#if defined(__unix__) || defined(__APPLE__)
#define TOKYONET_HAVE_POSIX_SOCKETS 1
#else
#define TOKYONET_HAVE_POSIX_SOCKETS 0
#endif

#if TOKYONET_HAVE_POSIX_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>
#endif

namespace tokyonet::ingest {

bool tcp_supported() noexcept { return TOKYONET_HAVE_POSIX_SOCKETS != 0; }

#if TOKYONET_HAVE_POSIX_SOCKETS

namespace {

[[nodiscard]] std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

[[nodiscard]] bool send_all(int fd, const std::uint8_t* data,
                            std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace

// --- TcpIngestListener --------------------------------------------------

struct TcpIngestListener::Impl {
  explicit Impl(IngestServer& srv) : server(&srv) {}

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listen socket shut down by stop()
      }
      std::lock_guard<std::mutex> lk(mu);
      if (stopping) {
        ::close(fd);
        return;
      }
      ++accepted;
      live_fds.push_back(fd);
      conn_threads.emplace_back([this, fd] { serve_connection(fd); });
    }
  }

  void serve_connection(int fd) {
    std::unique_ptr<IngestServer::Session> session = server->connect();
    std::vector<std::uint8_t> buf(64u << 10);
    for (;;) {
      const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
      if (got < 0) {
        if (errno == EINTR) continue;
        break;  // connection error: session settles as failed below
      }
      if (got == 0) {
        (void)session->finish();  // clean EOF
        break;
      }
      if (!session->feed({buf.data(), static_cast<std::size_t>(got)})) {
        break;  // malformed stream: drop just this connection
      }
    }
    {
      // Deregister before closing so stop() never shuts down a
      // recycled fd number.
      std::lock_guard<std::mutex> lk(mu);
      for (std::size_t i = 0; i < live_fds.size(); ++i) {
        if (live_fds[i] == fd) {
          live_fds.erase(live_fds.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    ::close(fd);
  }

  IngestServer* server;
  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  std::thread accept_thread;

  std::mutex mu;  // guards everything below
  bool stopping = false;
  std::uint64_t accepted = 0;
  std::vector<int> live_fds;
  std::vector<std::thread> conn_threads;
};

TcpIngestListener::TcpIngestListener(IngestServer& server)
    : impl_(std::make_unique<Impl>(server)) {}

TcpIngestListener::~TcpIngestListener() { stop(); }

bool TcpIngestListener::start(const std::string& host, std::uint16_t port,
                              std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid IPv4 listen address '" + host + "'";
    return false;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_string("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = errno_string("bind");
    ::close(fd);
    return false;
  }
  if (::listen(fd, 16) < 0) {
    *error = errno_string("listen");
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    impl_->bound_port = ntohs(bound.sin_port);
  }
  impl_->listen_fd = fd;
  impl_->accept_thread = std::thread([impl = impl_.get()] {
    impl->accept_loop();
  });
  return true;
}

std::uint16_t TcpIngestListener::port() const noexcept {
  return impl_->bound_port;
}

std::uint64_t TcpIngestListener::connections() const noexcept {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->accepted;
}

void TcpIngestListener::stop() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (impl_->stopping) return;
    impl_->stopping = true;
    // Force live connections to EOF so their threads wind down.
    for (const int fd : impl_->live_fds) ::shutdown(fd, SHUT_RDWR);
  }
  // Unblock accept() (shutdown makes it fail on Linux) and let the
  // accept thread finish before the fd is closed and cleared, so the
  // thread never reads a changing listen_fd or a recycled fd number.
  if (impl_->listen_fd >= 0) ::shutdown(impl_->listen_fd, SHUT_RDWR);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    threads.swap(impl_->conn_threads);
  }
  for (std::thread& t : threads) t.join();
}

// --- TcpClientSink ------------------------------------------------------

struct TcpClientSink::Impl {
  int fd = -1;
};

TcpClientSink::TcpClientSink() : impl_(std::make_unique<Impl>()) {}

TcpClientSink::~TcpClientSink() { close(); }

bool TcpClientSink::connect(const std::string& host, std::uint16_t port,
                            std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid IPv4 address '" + host + "'";
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_string("socket");
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    *error = errno_string("connect");
    ::close(fd);
    return false;
  }
  impl_->fd = fd;
  return true;
}

bool TcpClientSink::write(std::span<const std::uint8_t> bytes) {
  if (impl_->fd < 0) return false;
  return send_all(impl_->fd, bytes.data(), bytes.size());
}

void TcpClientSink::close() {
  if (impl_->fd >= 0) {
    ::shutdown(impl_->fd, SHUT_WR);
    // Wait for the server to close its side so the session's finish()
    // has run before the caller inspects results.
    std::uint8_t drain[256];
    while (::recv(impl_->fd, drain, sizeof(drain), 0) > 0) {
    }
    ::close(impl_->fd);
    impl_->fd = -1;
  }
}

#else  // !TOKYONET_HAVE_POSIX_SOCKETS

struct TcpIngestListener::Impl {};
TcpIngestListener::TcpIngestListener(IngestServer&) {}
TcpIngestListener::~TcpIngestListener() = default;
bool TcpIngestListener::start(const std::string&, std::uint16_t,
                              std::string* error) {
  *error = "TCP ingest is not supported on this platform";
  return false;
}
std::uint16_t TcpIngestListener::port() const noexcept { return 0; }
std::uint64_t TcpIngestListener::connections() const noexcept { return 0; }
void TcpIngestListener::stop() {}

struct TcpClientSink::Impl {};
TcpClientSink::TcpClientSink() = default;
TcpClientSink::~TcpClientSink() = default;
bool TcpClientSink::connect(const std::string&, std::uint16_t,
                            std::string* error) {
  *error = "TCP ingest is not supported on this platform";
  return false;
}
bool TcpClientSink::write(std::span<const std::uint8_t>) { return false; }
void TcpClientSink::close() {}

#endif  // TOKYONET_HAVE_POSIX_SOCKETS

}  // namespace tokyonet::ingest
