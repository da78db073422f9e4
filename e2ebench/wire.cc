#include "wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "api/codec.h"

namespace osum::e2e {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

std::unique_ptr<WireConnection> WireConnection::Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) ThrowErrno("socket");
  std::unique_ptr<WireConnection> conn(new WireConnection(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ThrowErrno("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return conn;
}

WireConnection::~WireConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void WireConnection::Send(const api::QueryRequest& request) {
  std::string frame = net::EncodeFrame(api::EncodeRequest(request));
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("send");
    }
    sent += static_cast<size_t>(n);
  }
}

bool WireConnection::ReadSome() {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    return frames_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

std::optional<std::string> WireConnection::ReadFrame() {
  for (;;) {
    if (std::optional<std::string> payload = frames_.Next()) return payload;
    if (!ReadSome()) return std::nullopt;
  }
}

}  // namespace osum::e2e
