#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/frame.h"

namespace st4ml {
namespace server {

StatusOr<Client> Client::Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::IOError(std::string("connect 127.0.0.1:") +
                                    std::to_string(port) + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Requests are small frames sent back to back: never hold one for Nagle.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Client client;
  client.fd_ = fd;
  return client;
}

StatusOr<std::string> Client::Call(const std::string& request_json,
                                   size_t max_response_bytes) {
  if (fd_ < 0) return Status::Internal("client not connected");
  ST4ML_RETURN_IF_ERROR(WriteFrame(fd_, request_json));
  StatusOr<std::string> response = ReadFrame(fd_, max_response_bytes);
  if (!response.ok() &&
      response.status().code() == Status::Code::kNotFound) {
    // The frame layer's clean-EOF sentinel; for a client mid-call it means
    // the server hung up without answering.
    return Status::IOError("server closed the connection");
  }
  return response;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace server
}  // namespace st4ml
